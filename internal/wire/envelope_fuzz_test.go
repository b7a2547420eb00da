package wire

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dist"
)

// maxAllocPerByte bounds what a decode may allocate per payload byte: the
// most memory a byte can describe is an eq.Constraint (176 bytes) decoded
// from a two-byte empty disjunction.
const maxAllocPerByte = 128

// FuzzEnvelope holds the shard payload decoder to its contract: arbitrary
// bytes never panic it, a lying count never makes it allocate more than the
// structures the payload's bytes can describe, and whatever decodes
// re-encodes to the same bytes. A peer server's OpShardMsg body reaches
// exactly this code.
func FuzzEnvelope(f *testing.F) {
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 24; i++ {
		env := genEnvelope(rng)
		b := AppendEnvelope(nil, &env)
		f.Add(b)
		if len(b) > 2 {
			f.Add(b[:len(b)/2])
		}
	}
	bench := dist.Envelope{Offer: benchOffer(f)}
	f.Add(AppendEnvelope(nil, &bench))
	f.Add([]byte{})
	f.Add([]byte{envOffer, 0, 0, 0, 0, offerFlagQuery, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte(`{"vote":{"group":7,"offer":3,"node":"127.0.0.1:7272","yes":true}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The process-wide counter also sees other goroutines (the fuzzing
		// engine's), so the least of three decodes counts.
		var env dist.Envelope
		var err error
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			env, err = DecodeEnvelope(data)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > uint64(maxAllocPerByte*len(data)+4096) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), least)
		}
		if err != nil {
			return
		}
		if again := AppendEnvelope(nil, &env); !bytes.Equal(again, data) {
			t.Fatalf("decoded envelope re-encodes to other bytes:\n in:  %x\n out: %x", data, again)
		}
	})
}
