package sim

import (
	"testing"
	"time"
)

func TestMutexExcludes(t *testing.T) {
	s := New(1)
	var m Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		s.Spawn("w", func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(5 * time.Millisecond) // yield while holding the lock
			inside--
			m.Unlock()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d", maxInside)
	}
	if s.Now() != Time(20*time.Millisecond) {
		t.Fatalf("serialized time = %v, want 20ms", s.Now())
	}
}

func TestMutexFIFO(t *testing.T) {
	s := New(1)
	var m Mutex
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // arrival order 0,1,2
			m.Lock(p)
			order = append(order, i)
			p.Sleep(10 * time.Millisecond)
			m.Unlock()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("acquisition order = %v", order)
		}
	}
}

func TestMutexTryLockAndHeld(t *testing.T) {
	var m Mutex
	if m.Held() {
		t.Fatal("fresh mutex held")
	}
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	if !m.Held() {
		t.Fatal("Held false while locked")
	}
	m.Unlock()
	if m.Held() {
		t.Fatal("Held true after unlock")
	}
}

func TestMutexUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var m Mutex
	m.Unlock()
}

func TestChanCloseDrains(t *testing.T) {
	s := New(1)
	q := NewChan[int]()
	var got []int
	s.Spawn("producer", func(p *Proc) {
		q.Send(1)
		q.Send(2)
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for {
			v, ok := q.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drained %v", got)
	}
}

func TestResourceUseEventQueues(t *testing.T) {
	s := New(1)
	var r Resource
	var order []string
	r.UseEvent(s, TaskPriority, 10*time.Millisecond, func() { order = append(order, "first") })
	r.UseEvent(s, TaskPriority, 10*time.Millisecond, func() { order = append(order, "second") })
	r.UseEvent(s, IntrPriority, time.Millisecond, func() { order = append(order, "intr") })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "intr", "second"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if r.Uses() != 3 || r.BusyTime() != 21*time.Millisecond {
		t.Fatalf("uses=%d busy=%v", r.Uses(), r.BusyTime())
	}
}

// TestResourceWaiting: at every stop, the charges asked of a resource
// are its busy time plus what is still waiting, whether a proc or an
// event asked, and nothing waits once the queue drains.
func TestResourceWaiting(t *testing.T) {
	s := New(1)
	var r Resource
	for i := 0; i < 2; i++ {
		s.Spawn("user", func(p *Proc) { r.Use(p, TaskPriority, 10*time.Millisecond) })
	}
	r.UseEvent(s, IntrPriority, 4*time.Millisecond, func() {})
	r.UseEvent(s, TaskPriority, 6*time.Millisecond, func() {})
	const asked = 30 * time.Millisecond
	for _, step := range []time.Duration{0, 3 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond, 20 * time.Millisecond} {
		if err := s.RunFor(step); err != nil {
			t.Fatal(err)
		}
		if got := r.BusyTime() + r.Waiting(); got != asked {
			t.Fatalf("at %v: busy %v + waiting %v = %v, want %v", s.Now(), r.BusyTime(), r.Waiting(), got, asked)
		}
	}
	if r.Waiting() != 0 || r.BusyTime() != asked {
		t.Fatalf("drained: busy %v, waiting %v", r.BusyTime(), r.Waiting())
	}
}

func TestTimeHelpers(t *testing.T) {
	a := Time(time.Second)
	if a.Add(time.Second) != Time(2*time.Second) {
		t.Fatal("Add")
	}
	if a.Sub(Time(time.Millisecond)) != 999*time.Millisecond {
		t.Fatal("Sub")
	}
	if a.String() != "1s" {
		t.Fatalf("String = %s", a)
	}
}

func TestYieldProcInterleaves(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.YieldProc()
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// a yields at t=0, letting b run before a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	n := 0
	s.Every(time.Millisecond, func() {
		n++
		if n == 3 {
			s.Stop()
		}
	})
	s.Spawn("fg", func(p *Proc) { p.Sleep(time.Hour) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ticks before stop = %d", n)
	}
}
