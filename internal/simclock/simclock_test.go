package simclock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(3 * Second)
	if t1.Seconds() != 3 {
		t.Errorf("Seconds = %v, want 3", t1.Seconds())
	}
	if d := t1.Sub(t0); d != 3*Second {
		t.Errorf("Sub = %v, want 3s", d)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{25 * Microsecond, "25.000µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestResourceSerializesOneUnit(t *testing.T) {
	r := NewResource(1)
	// Three back-to-back requests at t=0 must queue.
	d1 := r.Acquire(0, 10)
	d2 := r.Acquire(0, 10)
	d3 := r.Acquire(0, 10)
	if d1 != 10 || d2 != 20 || d3 != 30 {
		t.Errorf("completions = %v,%v,%v; want 10,20,30", d1, d2, d3)
	}
}

func TestResourceParallelUnits(t *testing.T) {
	r := NewResource(2)
	d1 := r.Acquire(0, 10)
	d2 := r.Acquire(0, 10)
	d3 := r.Acquire(0, 10)
	if d1 != 10 || d2 != 10 {
		t.Errorf("two units should serve both at once: %v, %v", d1, d2)
	}
	if d3 != 20 {
		t.Errorf("third request should queue: %v", d3)
	}
}

func TestResourceIdleGap(t *testing.T) {
	r := NewResource(1)
	r.Acquire(0, 10)
	// A request arriving after the device went idle starts immediately.
	if done := r.Acquire(100, 5); done != 105 {
		t.Errorf("done = %v, want 105", done)
	}
}

func TestBusyTimeAndHorizon(t *testing.T) {
	r := NewResource(1)
	r.Acquire(0, 7)
	r.Acquire(0, 3)
	if r.Horizon() != 10 {
		t.Errorf("Horizon = %v, want 10", r.Horizon())
	}
}

// Property: completion time is never before arrival + service.
func TestAcquireLowerBoundProperty(t *testing.T) {
	r := NewResource(3)
	f := func(at uint32, svc uint16) bool {
		a := Time(at)
		s := Duration(svc)
		done := r.Acquire(a, s)
		return done >= a.Add(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestResourceConcurrentSafety: 8,000 requests of 2 arriving at 0 on 4
// units leave every unit busy to 4,000, whatever the interleaving, unless a
// concurrent Acquire lost one.
func TestResourceConcurrentSafety(t *testing.T) {
	r := NewResource(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Acquire(0, 2)
			}
		}()
	}
	wg.Wait()
	if want := Time(8 * 1000 * 2 / 4); r.Horizon() != want {
		t.Errorf("Horizon = %v, want %v", r.Horizon(), want)
	}
}
