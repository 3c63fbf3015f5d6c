package trace

import (
	"strings"
	"testing"
)

func feed(c *InvariantChecker, t int64, leaders ...int) {
	c.OnSample(Sample{T: t, Leaders: leaders})
}

func TestInvariantCheckerCleanRun(t *testing.T) {
	c := NewInvariantChecker(3)
	feed(c, 10, 0, 0, 1)
	feed(c, 20, 0, 0, 0)
	feed(c, 30, 0, 0, -1) // crash is fine
	feed(c, 40, 0, 0, -1)
	if !c.OK() {
		t.Fatalf("clean run flagged: %v", c.Violations())
	}
}

func TestInvariantCheckerValidity(t *testing.T) {
	c := NewInvariantChecker(3)
	feed(c, 10, 0, 7, 1) // 7 out of range
	if c.OK() {
		t.Fatal("out-of-range leader not flagged")
	}
	if !strings.Contains(c.Violations()[0], "out-of-range") {
		t.Errorf("violation = %q", c.Violations()[0])
	}
}

func TestInvariantCheckerResurrection(t *testing.T) {
	c := NewInvariantChecker(2)
	feed(c, 10, 0, -1)
	feed(c, 20, 0, 1) // process 1 came back from the dead
	if c.OK() {
		t.Fatal("resurrection not flagged")
	}
}

func TestInvariantCheckerTimeMonotone(t *testing.T) {
	c := NewInvariantChecker(2)
	feed(c, 20, 0, 0)
	feed(c, 10, 0, 0)
	if c.OK() {
		t.Fatal("backwards time not flagged")
	}
}

func TestInvariantCheckerWidth(t *testing.T) {
	c := NewInvariantChecker(3)
	feed(c, 10, 0, 0)
	if c.OK() {
		t.Fatal("narrow sample not flagged")
	}
}

func TestInvariantCheckerViolationCap(t *testing.T) {
	c := NewInvariantChecker(2)
	for i := 0; i < 100; i++ {
		feed(c, int64(10+i), 5, 5)
	}
	if got := len(c.Violations()); got > 32 {
		t.Fatalf("violation log grew to %d", got)
	}
}
