// Package dist implements the cross-shard half of distributed entangled
// group commit: the message vocabulary exchanged between shard engines and
// the matchmaker — the group coordinator that pools unmatched entangled
// queries from every shard, forms entanglement groups across them, and
// drives the two-phase commit to a decision.
//
// The protocol (participant = the shard engine hosting a member):
//
//	participant -> matchmaker: Offer      (an unmatched NoPartner query,
//	                                       with its groundings and CSN)
//	matchmaker  -> participant: Prepare   (a matched answer; the member
//	                                       re-validates, executes to ready,
//	                                       parks holding a prepare record)
//	participant -> matchmaker: Vote       (yes = parked in-doubt; carries
//	                                       the member's exported spans)
//	matchmaker  -> participant: Decide    (logged to the coordinator WAL
//	                                       BEFORE this fan-out)
//	participant -> matchmaker: Status     (in-doubt resolution after a
//	                                       crash or a lost decide; unknown
//	                                       groups answer presumed-abort)
package dist

import (
	"strconv"
	"time"

	"repro/internal/eq"
	"repro/internal/obs"
	"repro/internal/types"
)

// Offer advertises one shard-local entangled query that found no local
// partner: its query, the groundings it computed against its own snapshot
// (so the matchmaker can solve without any storage access), and the CSN
// those groundings are valid at. Offers are keyed by (Node, ID); a
// re-offer after re-grounding replaces the previous one.
type Offer struct {
	Node     string          `json:"node"` // participant address (prepare/decide callback target)
	Shard    int             `json:"shard"`
	ID       uint64          `json:"id"` // stable per submitted program on its home shard
	Trace    uint64          `json:"trace,omitempty"`
	Query    *eq.Query       `json:"query"`
	Grounds  []*eq.Grounding `json:"grounds"`
	Tables   []string        `json:"tables"`
	CSN      uint64          `json:"csn"`
	Deadline time.Time       `json:"deadline"`
}

// Key identifies the offer in the matchmaker pool.
func (o *Offer) Key() string { return o.Node + "/" + strconv.FormatUint(o.ID, 10) }

// Answer is the JSON-safe projection of eq.Answer a Prepare delivers (no
// error field — errors never travel on the prepare path).
type Answer struct {
	Tuples   []eq.GroundAtom        `json:"tuples,omitempty"`
	Bindings map[string]types.Value `json:"bindings,omitempty"`
}

// Prepare asks a participant to deliver a matched answer to one of its
// offered members and park it prepared. Validation is local: the
// participant re-checks its own offered tables against its own offer CSN.
type Prepare struct {
	Group uint64 `json:"group"`
	Offer uint64 `json:"offer"` // the participant's offer id
	CSN   uint64 `json:"csn"`   // the offer CSN the answer was computed at
	Ans   Answer `json:"answer"`
}

// Vote is a participant's response to a Prepare: yes means the member
// executed to completion and is parked holding a flushed prepare record.
// The exported trace spans let the coordinator assemble the one merged
// trace of the group.
type Vote struct {
	Group      uint64     `json:"group"`
	Offer      uint64     `json:"offer"`
	Node       string     `json:"node"`
	Yes        bool       `json:"yes"`
	Trace      uint64     `json:"trace,omitempty"`
	TraceBegin time.Time  `json:"trace_begin,omitempty"`
	Spans      []obs.Span `json:"spans,omitempty"`
}

// Decide carries the coordinator's logged verdict to a participant.
type Decide struct {
	Group  uint64 `json:"group"`
	Commit bool   `json:"commit"`
}

// Envelope is the one fire-and-forget message shard servers exchange:
// exactly one member is set, and it names the kind. A transport moves
// envelopes without looking inside; the receiving server's deliver
// switches on the member. Status is not here — it is a request/response
// inquiry, not a message.
type Envelope struct {
	Offer   *Offer   `json:"offer,omitempty"`   // participant -> coordinator
	Prepare *Prepare `json:"prepare,omitempty"` // coordinator -> participant
	Vote    *Vote    `json:"vote,omitempty"`    // participant -> coordinator
	Decide  *Decide  `json:"decide,omitempty"`  // coordinator -> participant
}

// Status is a participant's in-doubt inquiry and its answer. Pending
// means the coordinator still has the group open (keep waiting); Known
// false with Pending false means no record exists at all — which, under
// presumed abort, is an abort verdict.
type Status struct {
	Group   uint64 `json:"group"`
	Known   bool   `json:"known"`
	Commit  bool   `json:"commit"`
	Pending bool   `json:"pending,omitempty"`
}
