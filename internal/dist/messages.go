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
	Node     string // participant address (prepare/decide callback target)
	Shard    int
	ID       uint64 // stable per submitted program on its home shard
	Trace    uint64
	Query    *eq.Query
	Grounds  []*eq.Grounding
	Tables   []string
	CSN      uint64
	Deadline time.Time
}

// offerKey identifies an offer in the matchmaker: its node and its id
// there.
type offerKey struct {
	Node string
	ID   uint64
}

func (o *Offer) key() offerKey { return offerKey{o.Node, o.ID} }

// Answer is the projection of eq.Answer a Prepare delivers (no error
// field — errors never travel on the prepare path).
type Answer struct {
	Tuples   []eq.GroundAtom
	Bindings map[string]types.Value
}

// Prepare asks a participant to deliver a matched answer to one of its
// offered members and park it prepared. Validation is local: the
// participant re-checks its own offered tables against its own offer CSN.
type Prepare struct {
	Group uint64
	Offer uint64 // the participant's offer id
	CSN   uint64 // the offer CSN the answer was computed at
	Ans   Answer
}

// Vote is a participant's response to a Prepare: yes means the member
// executed to completion and is parked holding a flushed prepare record.
// The exported trace spans let the coordinator assemble the one merged
// trace of the group.
type Vote struct {
	Group      uint64
	Offer      uint64
	Node       string
	Yes        bool
	Trace      uint64
	TraceBegin time.Time
	Spans      []obs.Span
}

// Decide carries the coordinator's logged verdict to a participant.
type Decide struct {
	Group  uint64
	Commit bool
}

// Envelope is the one fire-and-forget message shard servers exchange:
// exactly one member is set, and it names the kind. A transport moves
// envelopes without looking inside (over TCP, as wire.AppendEnvelope
// bytes); the receiving server's deliver switches on the member. Status is not here — it is a request/response
// inquiry, not a message.
type Envelope struct {
	Offer   *Offer   // participant -> coordinator
	Prepare *Prepare // coordinator -> participant
	Vote    *Vote    // participant -> coordinator
	Decide  *Decide  // coordinator -> participant
}

// Status is a participant's in-doubt inquiry and its answer. Pending
// means the coordinator still has the group open (keep waiting); Known
// false with Pending false means no record exists at all — which, under
// presumed abort, is an abort verdict.
type Status struct {
	Group   uint64
	Known   bool
	Commit  bool
	Pending bool
}
