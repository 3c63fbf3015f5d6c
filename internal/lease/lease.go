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
// all replicas of one store live in one address space, so the claim is a
// compare-and-swap, and the paper's register model stays confined to the
// consensus substrate underneath.
//
//   - word A holds (epoch, holder) and changes only at acquisition, by
//     CAS — epoch is monotone, so a reader can detect any change.
//   - word B holds the expiry (engine nanoseconds) and is extended by CAS
//     only while the lease is still valid.
//
// Safety argument. Acquire requires the observed expiry to have passed by
// more than eps before the CAS on A; Extend requires validity at its
// clock read and verifies A unchanged after its CAS on B. All parties
// read one clock (the engine's), so the only way two holders can overlap
// is a refresh or acquire whose clock read and CAS are separated by more
// than eps — the standard bounded-delay assumption every lease scheme
// makes. Consensus safety never depends on it (Paxos ballots arbitrate
// regardless); only read linearizability does. Under the deterministic
// simulator a machine's clock read and its effects are one atomic
// activation, so eps 0 is exact and the property is machine-checkable.
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
	a word // (epoch, holder), CAS'd at acquisition only
	b word // expiry in engine nanoseconds, CAS-extended
	// readable holds the full A word of the newest lease whose holder has
	// completed its catch-up barrier; a reader serves only when it matches
	// the current A, so a fresh (un-barriered) lease never serves and a
	// stale barrier mark can never match a newer epoch.
	readable word

	// History instrumentation (sim campaigns); off unless EnableHistory.
	histMu  sync.Mutex
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
	r.histMu.Lock()
	defer r.histMu.Unlock()
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
	a := r.a.Load()
	e, _ := unpackA(a)
	b := r.b.Load()
	if b != 0 && now <= vclock.Time(b)+vclock.Time(eps) {
		return 0, false // current grant still (possibly) valid
	}
	if !r.a.CompareAndSwap(a, packA(e+1, me)) {
		return 0, false // another claimant won; re-evaluate next step
	}
	// B still carries the expired expiry, so readers and Held see the new
	// epoch as invalid until this lands. A late extend by the previous
	// holder can race the store; CAS-loop to the maximum so the previous
	// holder's Extend (which re-checks A and finds itself dispossessed)
	// cannot shorten or lengthen our grant unnoticed.
	r.push(packA(e+1, me), now+vclock.Time(dur))
	if r.record {
		r.histMu.Lock()
		r.history = append(r.history, Grant{
			Epoch: e + 1, Holder: me, AcquiredAt: now,
			Expiry: now + vclock.Time(dur), PrevExpiry: vclock.Time(b),
		})
		r.histMu.Unlock()
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
// word it judged.
func (r *Register) holds(me int, now vclock.Time) (a uint64, ok bool) {
	a = r.a.Load()
	if _, h := unpackA(a); h != me {
		return a, false
	}
	return a, now < vclock.Time(r.b.Load()) // lapsed: only Acquire may revalidate
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
// barrier is complete. The A-B-readable loads need no retry loop: a
// mismatched pairing (a concurrent acquisition between loads) can only
// fail the readable==A comparison, never serve the wrong holder, and the
// reader then takes the fallback path.
func (r *Register) ReadableHolder(now vclock.Time) (holder int, epoch uint64, ok bool) {
	a := r.a.Load()
	if now >= vclock.Time(r.b.Load()) {
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
