package harness

import (
	"reflect"
	"testing"

	"omegasm/internal/vclock"
)

func TestByID(t *testing.T) {
	e, err := ByID("F2")
	if err != nil || e.ID != "F2" {
		t.Fatalf("ByID(F2) = %+v, %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllRegistered(t *testing.T) {
	want := []string{"F1", "F2", "F3", "F4", "F5", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "A1", "A2", "A3"}
	var got []string
	for _, e := range All() {
		got = append(got, e.ID)
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely registered", e.ID)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registered = %v, want %v", got, want)
	}
}

// TestIDsTracksIndex pins the contract CLI help is built on: IDs reflects
// the registry (including the post-T6 additions that once went stale in
// hand-written docs) in report order.
func TestIDsTracksIndex(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs() has %d entries, registry %d", len(ids), len(All()))
	}
	for _, must := range []string{"T7", "A1", "A3"} {
		found := false
		for _, id := range ids {
			if id == must {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("IDs() missing %s: %v", must, ids)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).seeds() != 10 {
		t.Errorf("default seeds = %d", (Config{}).seeds())
	}
	if (Config{Quick: true}).seeds() != 3 {
		t.Errorf("quick seeds = %d", (Config{Quick: true}).seeds())
	}
	if (Config{Seeds: 7}).seeds() != 7 {
		t.Errorf("explicit seeds = %d", (Config{Seeds: 7}).seeds())
	}
	if (Config{Quick: true}).horizon(400) != 100 {
		t.Errorf("quick horizon = %d", (Config{Quick: true}).horizon(400))
	}
	if (Config{}).horizon(400) != 400 {
		t.Errorf("full horizon = %d", (Config{}).horizon(400))
	}
}

func TestCrashPatterns(t *testing.T) {
	if got := crashPatterns(2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("crashPatterns(2) = %v", got)
	}
	if got := crashPatterns(5); !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Errorf("crashPatterns(5) = %v", got)
	}
}

func TestCrashSchedule(t *testing.T) {
	if crashSchedule(0, 1000) != nil {
		t.Error("zero crashes must return nil")
	}
	m := crashSchedule(3, 2400)
	if len(m) != 3 {
		t.Fatalf("schedule %v", m)
	}
	if _, ok := m[0]; ok {
		t.Error("process 0 (the AWB1 process) must never be crashed")
	}
	for pid, at := range m {
		if at <= 0 || at >= 2400 {
			t.Errorf("crash of %d at %d outside run", pid, at)
		}
	}
}

func TestExecuteUnknownAlgo(t *testing.T) {
	_, err := Execute(Preset{Algo: "bogus", N: 3, Horizon: 1000})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestExecuteInvalidWorld(t *testing.T) {
	_, err := Execute(Preset{Algo: AlgoWriteEfficient, N: 1, Horizon: 1000})
	if err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestStableBeforeMid(t *testing.T) {
	o := &RunOutcome{Stable: true, StabTime: 100, MidTime: 200}
	if !o.StableBeforeMid() {
		t.Error("stab before mid rejected")
	}
	o.StabTime = 300
	if o.StableBeforeMid() {
		t.Error("late stabilization accepted")
	}
	o.Stable = false
	if o.StableBeforeMid() {
		t.Error("unstable run accepted")
	}
}

func TestExecuteProducesSnapshots(t *testing.T) {
	p := defaultPreset(AlgoWriteEfficient, 3, 1, 20_000)
	out, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.End == nil || out.Mid == nil {
		t.Fatal("missing census snapshots")
	}
	if out.MidTime < 20_000*3/4 || out.MidTime > 20_000 {
		t.Errorf("mid snapshot at %d, want ~3/4 of horizon", out.MidTime)
	}
	if len(out.Samples) == 0 {
		t.Error("no samples")
	}
	// Suffix is a diff: totals must not exceed end totals.
	suffix := out.Suffix()
	for name, r := range suffix.Regs {
		if r.TotalWrites() > out.End.Regs[name].TotalWrites() {
			t.Errorf("suffix writes exceed end writes for %s", name)
		}
	}
}

func TestDefaultPresetShape(t *testing.T) {
	p := defaultPreset(AlgoBounded, 6, 42, 80_000)
	if p.N != 6 || p.Algo != AlgoBounded || p.Seed != 42 {
		t.Fatalf("preset = %+v", p)
	}
	if len(p.Pacing) != 6 || len(p.Timers) != 6 {
		t.Fatalf("adversary slices sized %d/%d", len(p.Pacing), len(p.Timers))
	}
	if p.AWBProc != 0 || p.Tau1 != 10_000 {
		t.Errorf("AWB params: proc=%d tau1=%d", p.AWBProc, p.Tau1)
	}
	// The timers must be AWB behaviors that settle at tau1.
	for i, b := range p.Timers {
		awb, ok := b.(vclock.AWBBehavior)
		if !ok {
			t.Fatalf("timer %d is not an AWBBehavior", i)
		}
		if _, settle := awb.Dominates(); settle != p.Tau1 {
			t.Errorf("timer %d settles at %d, want tau1=%d", i, settle, p.Tau1)
		}
	}
}
