// Package lease implements the leader-lease register behind the KV's
// linearizable read fast path.
//
// The paper's Omega oracle makes leadership *eventually* exclusive, which
// is enough for consensus safety but not for serving a read locally: any
// replica that merely believes it leads could answer from a state another
// leader has already moved past. A lease makes the exclusivity explicit
// and time-bounded: the agreed leader claims (epoch, holder, expiry) in a
// shared register, commits one fenced no-op through the replicated log
// (the catch-up barrier), and may then answer reads from its own applied
// state — no consensus round per read — until the expiry passes. Every
// proposer in the store is gated on holding this lease, so while a lease
// is valid nobody else can commit: the lease never straddles two leaders'
// commit authority.
//
// The register is two padded atomic words, not shared-memory registers:
// all replicas of one store live in one address space, so reads and
// refreshes are plain atomics, and the paper's register model stays
// confined to the consensus substrate underneath.
//
//   - word A holds (epoch, holder) and changes only at acquisition —
//     epoch is monotone, so a reader can detect any change.
//   - word B holds the expiry (engine nanoseconds) and is extended by CAS
//     only while the lease is still valid.
//
// Acquisitions are serialized by a mutex, the one lock in the register:
// a claim writes A and then B, and a rival claimant that read A between
// the two would judge the new epoch by its predecessor's expired B and
// take it over at once. Under the lock every claimant sees a claim whole.
// Reads, Held and Extend never take it, and a claimant whose observed
// grant is still valid fails before it does.
//
// Safety argument. Acquire requires the observed expiry to have passed by
// more than eps before it writes A; Extend requires validity at its
// clock read and verifies A unchanged after its CAS on B. All parties
// read one clock (the engine's), so the only way two holders can overlap
// is a refresh or acquire whose clock read and CAS are separated by more
// than eps — the standard bounded-delay assumption every lease scheme
// makes. Consensus safety never depends on it (Paxos ballots arbitrate
// regardless); only read linearizability does. Under the deterministic
// simulator a machine's clock read and its effects are one atomic
// activation, so eps 0 is exact and the property is machine-checkable.
//
// The switch from ungated authority. A store takes no grant until it is
// first read under the lease; until then its replicas arm proposals on
// another authority (being the store's write target), which no word
// here records. The store switches lease authority on once, at a clock
// reading s, and from then on every proposer is gated on holding a
// grant. A replica that passed the old gate may still be between that
// check and its effect, exactly as a holder between its validity check
// and its extension. So the switch is treated as the expiry of a grant
// nobody can extend: the first Acquire succeeds only after s + eps, the
// same margin an expired grant's successor waits. Any arming authorized
// before the switch has then taken effect, and the first holder's
// catch-up barrier covers whatever it committed. The register's words
// are not touched by the switch; the store's driver enforces the wait.
package lease

import (
	"sync"
	"sync/atomic"

	"omegasm/internal/vclock"
)

// maxHolders bounds the holder ids packable into word A.
const maxHolders = 1 << 8

// word is a cache-line padded atomic uint64, same idiom as the census
// shards in internal/shmem: the holder stores into one word on every
// refresh while all readers load all three, and padding keeps a refresh
// from invalidating the readers' copies of the other words.
type word struct {
	v atomic.Uint64
	_ [56]byte
}

func (w *word) Load() uint64                    { return w.v.Load() }
func (w *word) Store(x uint64)                  { w.v.Store(x) }
func (w *word) CompareAndSwap(o, n uint64) bool { return w.v.CompareAndSwap(o, n) }

// packA packs (epoch, holder) into word A; epoch is monotone and
// 56 bits, so it never wraps in practice and A never repeats a value.
func packA(epoch uint64, holder int) uint64 {
	return epoch<<8 | uint64(holder)
}

func unpackA(a uint64) (epoch uint64, holder int) {
	return a >> 8, int(a & 0xFF)
}

// Grant is a decoded view of one acquisition, as recorded by the
// optional history (see EnableHistory).
type Grant struct {
	Epoch      uint64
	Holder     int
	AcquiredAt vclock.Time
	Expiry     vclock.Time
	// PrevExpiry is the expiry word the acquirer observed (and found
	// passed) when it claimed — the previous grant's final, extension-
	// included expiry; 0 for the first grant. AcquiredAt > PrevExpiry for
	// every recorded grant is exactly the no-two-valid-leases-overlap
	// property, so the sim campaigns assert it over the whole history.
	PrevExpiry vclock.Time
}

// Register is the store-wide lease word pair. The zero value is an
// unheld lease at epoch 0. Fields A and B sit on their own cache lines:
// the holder extends B on every refresh while every reader loads both,
// and sharing a line would make each refresh invalidate the readers'
// copy of A as well.
type Register struct {
	a word // (epoch, holder), written at acquisition only, under acqMu
	b word // expiry in engine nanoseconds, CAS-extended
	// readable holds the full A word of the newest lease whose holder has
	// completed its catch-up barrier; a reader serves only when it matches
	// the current A, so a fresh (un-barriered) lease never serves and a
	// stale barrier mark can never match a newer epoch.
	readable word

	// acqMu serializes acquisitions and guards the history.
	acqMu sync.Mutex
	// History instrumentation (sim campaigns); off unless EnableHistory.
	history []Grant
	record  bool
}

// EnableHistory makes the register record every successful acquisition;
// call before concurrent use. The deterministic-simulation lease
// campaigns use the trace to assert that no two grants' validity windows
// ever overlap.
func (r *Register) EnableHistory() { r.record = true }

// History returns a copy of the recorded acquisitions in order.
func (r *Register) History() []Grant {
	r.acqMu.Lock()
	defer r.acqMu.Unlock()
	return append([]Grant(nil), r.history...)
}

// Acquire claims the lease for holder me until now+dur, succeeding only
// when no current grant is valid: the observed expiry must be more than
// eps in the past (eps covers the previous holder's clock-read-to-effect
// delay; 0 under the simulator). On success the epoch advances and the
// new grant is NOT readable until the holder completes its barrier and
// calls MarkReadable. A holder whose own lease merely expired re-acquires
// through this same path — with a fresh epoch and a fresh barrier,
// because commits by a successor during the lapse are possible.
func (r *Register) Acquire(me int, now vclock.Time, dur, eps int64) (epoch uint64, ok bool) {
	if me < 0 || me >= maxHolders {
		return 0, false
	}
	valid := func(b uint64) bool { return b != 0 && now <= vclock.Time(b)+vclock.Time(eps) }
	if valid(r.b.Load()) {
		return 0, false // current grant still (possibly) valid
	}
	r.acqMu.Lock()
	defer r.acqMu.Unlock()
	// Under the lock B is the expiry of the grant A names: a rival's
	// claim has pushed its own before releasing.
	e, _ := unpackA(r.a.Load())
	b := r.b.Load()
	if valid(b) {
		return 0, false // another claimant won; re-evaluate next step
	}
	r.a.Store(packA(e+1, me))
	// B still carries the expired expiry, so readers and Held see the new
	// epoch as invalid until this lands. A late extend by the previous
	// holder can race the store; CAS-loop to the maximum so the previous
	// holder's Extend (which re-checks A and finds itself dispossessed)
	// cannot shorten or lengthen our grant unnoticed.
	r.push(packA(e+1, me), now+vclock.Time(dur))
	if r.record {
		r.history = append(r.history, Grant{
			Epoch: e + 1, Holder: me, AcquiredAt: now,
			Expiry: now + vclock.Time(dur), PrevExpiry: vclock.Time(b),
		})
	}
	return e + 1, true
}

// Extend pushes the expiry of me's grant out to now+dur. It returns
// false — and extends nothing durable — when me no longer holds the
// lease or let it expire (expired holders must re-acquire, taking a new
// epoch and a new barrier). The post-CAS re-check of A closes the race
// with a concurrent Acquire: if the claim landed between our validity
// check and our extension, we report lost and the caller stops serving.
func (r *Register) Extend(me int, now vclock.Time, dur int64) bool {
	a, valid := r.holds(me, now)
	return valid && r.push(a, now+vclock.Time(dur))
}

// holds is the validity check Held and Extend share: it reports whether
// word A names me and the expiry has not passed at now, and returns the A
// word it judged. A is loaded again after B: a claim landing between the
// two loads would pair my old A with the successor's expiry, and my
// lapsed grant would read as valid.
func (r *Register) holds(me int, now vclock.Time) (a uint64, ok bool) {
	a = r.a.Load()
	if _, h := unpackA(a); h != me {
		return a, false
	}
	// lapsed: only Acquire may revalidate
	return a, now < vclock.Time(r.b.Load()) && r.a.Load() == a
}

// push is Extend's effect, separated from its check so the window between
// the two is explicit (and testable): raise B to at least exp, then report
// whether A is still the word the check judged.
func (r *Register) push(a uint64, exp vclock.Time) bool {
	for {
		cur := r.b.Load()
		if cur >= uint64(exp) || r.b.CompareAndSwap(cur, uint64(exp)) {
			break
		}
	}
	return r.a.Load() == a
}

// Held reports whether me holds a currently valid grant, and under which
// epoch. This is the proposer authority check: a replica may only arm
// proposals while Held, which is what confines commits to lease windows.
func (r *Register) Held(me int, now vclock.Time) (epoch uint64, ok bool) {
	a, ok := r.holds(me, now)
	if !ok {
		return 0, false
	}
	e, _ := unpackA(a)
	return e, true
}

// MarkReadable publishes that epoch's holder has completed its catch-up
// barrier: its applied state reflects every command any previous
// authority committed. Readers serve only from a readable grant. A stale
// call (the epoch has already moved on) marks nothing, because the
// stored word can never equal a newer A.
func (r *Register) MarkReadable(epoch uint64, me int) {
	r.readable.Store(packA(epoch, me))
}

// ReadableHolder returns the holder to serve a lease read from: the
// current grant's holder, provided the grant is valid at now and its
// barrier is complete. The loads need no retry loop: A is loaded again
// after B, as in holds, so a concurrent acquisition between the loads
// fails the check instead of lending the successor's expiry to the
// lapsed grant, and the reader then takes the fallback path.
func (r *Register) ReadableHolder(now vclock.Time) (holder int, epoch uint64, ok bool) {
	a := r.a.Load()
	if now >= vclock.Time(r.b.Load()) || r.a.Load() != a {
		return -1, 0, false
	}
	if r.readable.Load() != a {
		return -1, 0, false
	}
	e, h := unpackA(a)
	return h, e, true
}

// Peek decodes the current words for diagnostics and tests: the grant as
// (epoch, holder, expiry) plus whether it is marked readable.
func (r *Register) Peek() (g Grant, readable bool) {
	a := r.a.Load()
	e, h := unpackA(a)
	return Grant{Epoch: e, Holder: h, Expiry: vclock.Time(r.b.Load())},
		r.readable.Load() == a
}
