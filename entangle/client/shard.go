package client

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/shard"
	"repro/internal/wire"
)

// The sharded-deployment surface of the client: the placement fetch, the
// in-doubt status inquiry, and the one server-to-server 2PC message op.
// Servers in a sharded deployment dial their peers with this very
// package, so the cross-shard protocol rides the same connection
// machinery (reconnects, write batching) as ordinary client traffic.
//
// Retry discipline: shard messages are deliberately NOT transparently
// retried — the 2PC protocol already repairs every lost message (a lost
// offer re-offers on the scheduler's retry tick, a lost prepare or vote
// times the group out into a safe abort, a lost decide is recovered by the
// participant's status poll), and a blind transport retry could resurrect
// a message the protocol has moved past. Placement and status are
// read-only and retry freely.

// Placement fetches the server's versioned shard placement map.
func (c *Client) Placement() (*shard.Map, error) {
	resp, err := c.call(wire.Request{Op: wire.OpPlacement})
	if err != nil {
		return nil, err
	}
	return shard.Unmarshal(resp.Body)
}

// SubmitScriptTraced is SubmitScript under a caller-supplied trace id (0 =
// honor Options.Trace). Servers forwarding a submission to its home shard
// use it to keep the client's minted id on the forwarded program.
func (c *Client) SubmitScriptTraced(script string, trace uint64) (*Handle, error) {
	if trace == 0 {
		trace = c.mintTrace()
	}
	resp, err := c.call(wire.Request{Op: wire.OpSubmit, SQL: script, Trace: trace})
	if err != nil {
		return nil, err
	}
	if resp.Trace != 0 {
		trace = resp.Trace
	}
	return &Handle{c: c, id: resp.Handle, trace: trace}, nil
}

// ShardSend delivers one 2PC message (offer, prepare, vote or decide) to
// the peer server, in the request's Body (wire.AppendEnvelope).
func (c *Client) ShardSend(msg dist.Envelope) error {
	_, err := c.call(wire.Request{Op: wire.OpShardMsg, Body: wire.AppendEnvelope(nil, &msg)})
	return err
}

// ShardStatus inquires a group's verdict (in-doubt resolution). The group
// id travels in the request's Handle field — the same opaque-u64 shape.
func (c *Client) ShardStatus(group uint64) (dist.Status, error) {
	resp, err := c.call(wire.Request{Op: wire.OpShardStatus, Handle: group})
	if err != nil {
		return dist.Status{}, err
	}
	st, err := wire.DecodeStatus(resp.Body)
	if err != nil {
		return st, fmt.Errorf("client: decode status: %w", err)
	}
	return st, nil
}
