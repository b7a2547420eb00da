package clock

import (
	"reflect"
	"testing"
	"time"
)

var epoch = time.Date(2011, 5, 3, 0, 0, 0, 0, time.UTC)

// TestFakeFiresInDeadlineOrder: Advance fires exactly the timers that fall
// due, in deadline order and then arming order, each seeing its own
// deadline as the time; a stopped timer never fires and a reset one fires
// at its new deadline.
func TestFakeFiresInDeadlineOrder(t *testing.T) {
	c := NewFake(epoch)
	var got []string
	at := func(name string) func() {
		return func() { got = append(got, name+"@"+c.Now().Sub(epoch).String()) }
	}
	c.AfterFunc(30*time.Millisecond, at("c"))
	c.AfterFunc(10*time.Millisecond, at("a"))
	c.AfterFunc(10*time.Millisecond, at("b"))
	stopped := c.AfterFunc(20*time.Millisecond, at("stopped"))
	moved := c.AfterFunc(5*time.Millisecond, at("moved"))
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop must report true once, then false")
	}
	if !moved.Reset(40 * time.Millisecond) {
		t.Fatal("Reset of a pending timer must report true")
	}

	c.Advance(10*time.Millisecond - time.Nanosecond)
	if len(got) != 0 {
		t.Fatalf("fired before the deadline: %v", got)
	}
	c.Advance(time.Nanosecond)
	c.Advance(time.Second)
	want := []string{"a@10ms", "b@10ms", "c@30ms", "moved@40ms"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if d := c.Now().Sub(epoch); d != time.Second+10*time.Millisecond {
		t.Errorf("clock reads +%v after the advances, want +1.01s", d)
	}
}

// TestFakeCallbackRearms: a callback that re-arms its own timer inside the
// advanced window fires again in the same Advance — a ticker — and one
// re-armed past the window stays pending.
func TestFakeCallbackRearms(t *testing.T) {
	c := NewFake(epoch)
	n := 0
	var tick Timer
	tick = c.AfterFunc(25*time.Millisecond, func() {
		n++
		tick.Reset(25 * time.Millisecond)
	})
	c.Advance(100 * time.Millisecond)
	if n != 4 {
		t.Fatalf("ticks = %d over 100ms at 25ms, want 4", n)
	}
	if !tick.Stop() {
		t.Fatal("the re-armed tick must stay pending")
	}
}
