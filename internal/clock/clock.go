// Package clock is the one source of time for every timeout decision the
// engine, the matchmaker and the sharded server make: deadlines, the
// scheduler's tick-and-deadline timer, group timers and status polls.
// Measurements (span anchors, latency histograms, socket deadlines) stay on
// time.Now, so traced durations remain real durations under a fake clock.
//
// Wall is the production clock. Fake is a manually advanced clock for
// tests: time moves only when Advance is called, and the timers it makes
// due fire in deadline order on Advance's goroutine.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock is what a timeout decision needs: the current time and a timer
// that calls back when it falls due.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f, on a goroutine of the clock's choosing, once d has
	// passed. The returned Timer stops or re-arms it.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc callback. Both methods report whether the
// timer was still pending; Reset re-arms it d from now either way.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Wall is the real clock: time.Now and time.AfterFunc.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time { return time.Now() }

func (wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Or returns c, or Wall when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

// Fake is a clock that moves only when Advance is called. It is safe for
// concurrent use.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer // armed, by deadline and then arming order
}

// NewFake returns a fake clock reading start.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

// Now returns the fake time.
func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc arms a timer that fires f once the clock reaches now+d. A
// timer due at once (d <= 0) fires at the next Advance, even Advance(0).
func (c *Fake) AfterFunc(d time.Duration, f func()) Timer {
	t := &fakeTimer{c: c, f: f}
	c.mu.Lock()
	c.arm(t, d)
	c.mu.Unlock()
	return t
}

// Advance moves the clock forward by d. Every timer that falls due on the
// way fires in deadline order, on this goroutine, with the clock reading
// its deadline; timers its callback arms are due too if they fall inside
// the window. When Advance returns, the clock reads the old time plus d and
// every callback it fired has returned.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	end := c.now.Add(d)
	for len(c.timers) > 0 && !c.timers[0].when.After(end) {
		t := c.timers[0]
		c.timers = c.timers[1:]
		if t.when.After(c.now) {
			c.now = t.when
		}
		t.armed = false
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = end
	c.mu.Unlock()
}

// arm (re)inserts t, due d from now, after every timer due no later.
// Caller holds c.mu.
func (c *Fake) arm(t *fakeTimer, d time.Duration) bool {
	was := c.disarm(t)
	t.when, t.armed = c.now.Add(d), true
	i := sort.Search(len(c.timers), func(i int) bool { return c.timers[i].when.After(t.when) })
	c.timers = append(c.timers, nil)
	copy(c.timers[i+1:], c.timers[i:])
	c.timers[i] = t
	return was
}

// disarm removes t if it is armed and reports whether it was. Caller holds
// c.mu.
func (c *Fake) disarm(t *fakeTimer) bool {
	if !t.armed {
		return false
	}
	t.armed = false
	for i, u := range c.timers {
		if u == t {
			c.timers = append(c.timers[:i], c.timers[i+1:]...)
			break
		}
	}
	return true
}

type fakeTimer struct {
	c     *Fake
	f     func()
	when  time.Time
	armed bool
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.c.disarm(t)
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.c.arm(t, d)
}
