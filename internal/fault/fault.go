// Package fault is a deterministic failpoint substrate. Production code
// declares named fault.Points at interesting places (frame writes, WAL
// appends, dispatch); tests arm a subset of them with a trigger (probability,
// every-Nth, one-shot) and an action (error, delay, connection reset, short
// write). Everything is seeded, so a chaos run with a fixed seed replays the
// same fault schedule.
//
// The substrate is build-tag-free and costs nearly nothing when idle: a nil
// *Point is a valid, permanently-disabled point (Fire on a nil receiver
// returns immediately), and a registered-but-disarmed point is a single
// atomic load. Code that may run without any registry at all keeps nil Point
// fields and never pays more than a nil check.
package fault

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the base error returned by error-action failpoints. Injected
// errors wrap it, so tests can assert errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("fault: injected failure")

// Kind selects what an armed failpoint does when its trigger fires.
type Kind int

const (
	// KindError makes the hook return an injected error.
	KindError Kind = iota
	// KindDelay sleeps for Action.Delay, then proceeds normally.
	KindDelay
	// KindDrop swallows a write (reports success, sends nothing) and kills
	// the connection so the peer observes a silent loss then a reset.
	KindDrop
	// KindReset hard-closes the connection (RST where the platform allows).
	KindReset
	// KindShortWrite writes only the first Action.KeepBytes bytes of the
	// buffer, then fails. On a conn this also resets; on a WAL append it
	// leaves a torn tail.
	KindShortWrite
)

// Action is what happens when an armed point's trigger fires.
type Action struct {
	Kind Kind
	// Err overrides the returned error for KindError (wrapped around
	// ErrInjected via injectedError); nil means a generic injected error.
	Err error
	// Delay is the sleep duration for KindDelay.
	Delay time.Duration
	// KeepBytes is how many leading bytes a KindShortWrite lets through.
	KeepBytes int
}

// Trigger decides when an armed point fires.
type Trigger struct {
	// Prob fires with the given probability per call (0 < Prob <= 1),
	// using the point's seeded RNG.
	Prob float64
	// EveryNth fires on every Nth call (1 = every call).
	EveryNth int
	// After skips the first After calls before the trigger is considered.
	After int
	// OneShot disarms the point after its first firing.
	OneShot bool
}

// Firing is one recorded fault injection: which point fired and the
// lifecycle trace id active at the firing site (0 when the request was
// untraced). The registry keeps a bounded ring of these so a chaos run's
// fault schedule can be correlated against the trace ring — "this query
// was slow because server.dispatch injected into it" becomes a join on
// trace id instead of guesswork.
type Firing struct {
	Point string `json:"point"`
	Trace uint64 `json:"trace,omitempty"`
}

// maxFirings bounds the registry's firing ring; older entries drop first.
const maxFirings = 1024

// Registry holds the named failpoints of one system instance. A nil
// *Registry is valid and permanently inert.
type Registry struct {
	seed  int64
	mu    sync.Mutex
	pts   map[string]*Point
	ring  []Firing
	fired atomic.Int64
}

// NewRegistry creates a registry whose armed points derive their randomness
// from seed, so identical seeds replay identical fault schedules.
func NewRegistry(seed int64) *Registry {
	return &Registry{seed: seed, pts: make(map[string]*Point)}
}

// Point returns the named failpoint, creating it disarmed if needed.
// On a nil registry it returns nil, which is a valid inert point.
func (r *Registry) Point(name string) *Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pts[name]
	if p == nil {
		p = &Point{name: name, reg: r}
		r.pts[name] = p
	}
	return p
}

// Enable arms the named point with a trigger and action, creating it if
// needed. It returns the point for convenience.
func (r *Registry) Enable(name string, t Trigger, a Action) *Point {
	p := r.Point(name)
	p.mu.Lock()
	p.trig = t
	p.act = a
	p.calls = 0
	h := fnv.New64a()
	h.Write([]byte(name))
	p.rng = rand.New(rand.NewSource(r.seed ^ int64(h.Sum64())))
	p.mu.Unlock()
	p.armed.Store(true)
	return p
}

// Fired reports how many faults this registry has injected in total.
func (r *Registry) Fired() int64 {
	if r == nil {
		return 0
	}
	return r.fired.Load()
}

// record appends one firing to the bounded ring.
func (r *Registry) record(point string, trace uint64) {
	r.fired.Add(1)
	r.mu.Lock()
	r.ring = append(r.ring, Firing{Point: point, Trace: trace})
	if over := len(r.ring) - maxFirings; over > 0 {
		r.ring = append(r.ring[:0], r.ring[over:]...)
	}
	r.mu.Unlock()
}

// Firings returns a copy of the recorded firing ring, oldest first.
// Nil-safe.
func (r *Registry) Firings() []Firing {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Firing(nil), r.ring...)
}

// Point is one named failpoint. The zero of usefulness is a nil *Point:
// every method is safe and inert on a nil receiver.
type Point struct {
	name  string
	reg   *Registry
	armed atomic.Bool

	mu    sync.Mutex
	trig  Trigger
	act   Action
	calls int
	rng   *rand.Rand
}

// Eval is the core hook: it decides whether the point fires now and, for
// KindDelay, performs the sleep inline. It returns the action and true when
// the caller must apply a non-delay action, and false on the fast path.
func (p *Point) Eval() (Action, bool) { return p.EvalTagged(0) }

// EvalTagged is Eval with the caller's active lifecycle trace id attached
// to the recorded firing (0 = untraced, identical to Eval). Sites that
// know which request they are injecting into — the server's dispatch
// hook, most usefully — pass the request's trace so chaos runs can be
// joined against the trace ring.
func (p *Point) EvalTagged(trace uint64) (Action, bool) {
	if p == nil || !p.armed.Load() {
		return Action{}, false
	}
	p.mu.Lock()
	if !p.armed.Load() { // re-check: lost a race with a one-shot firing
		p.mu.Unlock()
		return Action{}, false
	}
	p.calls++
	if p.calls <= p.trig.After {
		p.mu.Unlock()
		return Action{}, false
	}
	hit := false
	if p.trig.Prob > 0 {
		hit = p.rng.Float64() < p.trig.Prob
	} else if p.trig.EveryNth > 0 {
		hit = (p.calls-p.trig.After)%p.trig.EveryNth == 0
	} else {
		hit = true // armed with no rate limit: always fire
	}
	if !hit {
		p.mu.Unlock()
		return Action{}, false
	}
	if p.trig.OneShot {
		p.armed.Store(false)
	}
	act := p.act
	p.mu.Unlock()
	p.reg.record(p.name, trace)
	if act.Kind == KindDelay {
		time.Sleep(act.Delay)
		return Action{}, false
	}
	return act, true
}

// Fire evaluates the point and returns an error for error-like actions
// (KindError, KindShortWrite, KindReset, KindDrop all map to an injected
// error here; use Eval directly where those kinds need bespoke handling,
// e.g. on a net.Conn). Delays happen inline. Nil receiver: no-op.
func (p *Point) Fire() error { return p.FireTagged(0) }

// FireTagged is Fire with the caller's active trace id attached to the
// recorded firing.
func (p *Point) FireTagged(trace uint64) error {
	act, hit := p.EvalTagged(trace)
	if !hit {
		return nil
	}
	return p.errorFor(act)
}

// ErrFor builds the injected error for an action returned by Eval, for
// hooks that apply part of the action themselves (e.g. a short write)
// before failing.
func (p *Point) ErrFor(act Action) error { return p.errorFor(act) }

func (p *Point) errorFor(act Action) error {
	if act.Err != nil {
		return &injectedError{point: p.name, cause: act.Err}
	}
	return &injectedError{point: p.name}
}

type injectedError struct {
	point string
	cause error
}

func (e *injectedError) Error() string {
	if e.cause != nil {
		return "fault " + e.point + ": " + e.cause.Error()
	}
	return "fault " + e.point + ": injected failure"
}

func (e *injectedError) Unwrap() error {
	if e.cause != nil {
		return e.cause
	}
	return ErrInjected
}

// Is lets errors.Is(err, fault.ErrInjected) hold even when a cause is set.
func (e *injectedError) Is(target error) bool { return target == ErrInjected }
