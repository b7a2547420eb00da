package wire

import (
	"encoding/binary"
	"math"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/eq"
	"repro/internal/obs"
	"repro/internal/types"
)

// The shard payloads (wire protocol v3): a dist.Envelope is the Body of an
// OpShardMsg request, a dist.Status the Body of an OpShardStatus response.
// They follow the frame discipline of binary.go: the encoder computes the
// exact size first and grows the buffer once, values and tuples are
// types.EncodeValue/EncodeTuple bytes (the WAL's), and the decoder checks
// every count against the remaining bytes before it allocates.
//
// Envelope:
//
//	u8 kind: 0 empty, 1 offer, 2 prepare, 3 vote, 4 decide
//	offer    string node; varint shard; uvarint id; uvarint trace;
//	         u8 flags (bit0 query, bit1 deadline); [query];
//	         uvarint n, n×grounding; uvarint n, n×string table;
//	         uvarint csn; [time deadline]
//	prepare  uvarint group; uvarint offer; uvarint csn;
//	         uvarint n, n×ground atom (answer tuples);
//	         uvarint n, n×(string name; value) (bindings, names ascending)
//	vote     uvarint group; uvarint offer; string node;
//	         u8 flags (bit0 yes, bit1 trace begin); uvarint trace;
//	         [time trace begin]; uvarint n, n×span
//	decide   uvarint group; u8 commit
//
//	query       atoms head; atoms post; atoms body;
//	            uvarint n, n×constraint; uvarint n, n×string bind;
//	            varint choose
//	atoms       uvarint n, n×(string rel; uvarint n, n×term)
//	term        u8 tag: 0 constant value | 1 variable string |
//	            2 parameter uvarint | 3 sum term term | 4 difference term term
//	constraint  u8 tag: 0 comparison term uvarint(op) term |
//	            1 disjunction uvarint n, n×(uvarint m, m×constraint)
//	grounding   uvarint n, n×string var; uvarint n, n×value;
//	            uvarint n, n×ground atom head; uvarint n, n×ground atom post
//	ground atom string rel; tuple args
//	time        varint unix seconds; uvarint nanoseconds
//	span        string name; uvarint actor; f64 start; f64 dur (IEEE 754
//	            bits, little-endian); varint shard; string note
//
// Status:
//
//	uvarint group; u8 flags (bit0 known, bit1 commit, bit2 pending)
//
// Decoding is strict, so a message that decodes re-encodes to its own
// bytes: unknown kinds, tags, operators and flag bits, non-minimal varints,
// unsorted or repeated binding names, and trailing bytes are errors. An
// empty slice or map decodes as nil. Terms and constraints nest at most
// maxNesting deep; a deeper one fails to decode, like a lost message.

// Envelope kinds.
const (
	envEmpty byte = iota
	envOffer
	envPrepare
	envVote
	envDecide
)

// Term tags.
const (
	termConst byte = iota
	termVar
	termParam
	termSum
	termDiff
)

// Constraint tags.
const (
	consCmp byte = iota
	consOr
)

const (
	offerFlagQuery    = 1 << 0
	offerFlagDeadline = 1 << 1
	voteFlagYes       = 1 << 0
	voteFlagBegin     = 1 << 1
	statusFlagKnown   = 1 << 0
	statusFlagCommit  = 1 << 1
	statusFlagPending = 1 << 2
)

// maxNesting bounds how deep decoded terms and constraints nest, so a
// hostile payload cannot recurse the decoder off its stack.
const maxNesting = 256

// --- sizes ---------------------------------------------------------------

func envelopeSize(e *dist.Envelope) int {
	n := 1
	switch {
	case e.Offer != nil:
		o := e.Offer
		n += strSize(o.Node) + vlen(int64(o.Shard)) + uvlen(o.ID) + uvlen(o.Trace) + 1
		if o.Query != nil {
			n += querySize(o.Query)
		}
		n += uvlen(uint64(len(o.Grounds)))
		for _, g := range o.Grounds {
			n += groundingSize(g)
		}
		n += uvlen(uint64(len(o.Tables)))
		for _, t := range o.Tables {
			n += strSize(t)
		}
		n += uvlen(o.CSN)
		if !o.Deadline.IsZero() {
			n += timeSize(o.Deadline)
		}
	case e.Prepare != nil:
		p := e.Prepare
		n += uvlen(p.Group) + uvlen(p.Offer) + uvlen(p.CSN) + groundAtomsSize(p.Ans.Tuples)
		n += uvlen(uint64(len(p.Ans.Bindings)))
		for k, v := range p.Ans.Bindings {
			n += strSize(k) + v.EncodedSize()
		}
	case e.Vote != nil:
		v := e.Vote
		n += uvlen(v.Group) + uvlen(v.Offer) + strSize(v.Node) + 1 + uvlen(v.Trace)
		if !v.TraceBegin.IsZero() {
			n += timeSize(v.TraceBegin)
		}
		n += uvlen(uint64(len(v.Spans)))
		for _, s := range v.Spans {
			n += strSize(s.Name) + uvlen(s.Actor) + 16 + vlen(int64(s.Shard)) + strSize(s.Note)
		}
	case e.Decide != nil:
		n += uvlen(e.Decide.Group) + 1
	}
	return n
}

func timeSize(t time.Time) int { return vlen(t.Unix()) + uvlen(uint64(t.Nanosecond())) }

func termSize(t *eq.Term) int {
	switch {
	case t.IsVar:
		return 1 + strSize(t.Name)
	case t.Param > 0:
		return 1 + uvlen(uint64(t.Param))
	case t.Arith != nil:
		return 1 + termSize(&t.Arith.L) + termSize(&t.Arith.R)
	}
	return 1 + t.Value.EncodedSize()
}

func atomsSize(as []eq.Atom) int {
	n := uvlen(uint64(len(as)))
	for i := range as {
		n += strSize(as[i].Rel) + uvlen(uint64(len(as[i].Args)))
		for j := range as[i].Args {
			n += termSize(&as[i].Args[j])
		}
	}
	return n
}

func constraintsSize(cs []eq.Constraint) int {
	n := uvlen(uint64(len(cs)))
	for i := range cs {
		c := &cs[i]
		if c.Or != nil {
			n += 1 + uvlen(uint64(len(c.Or)))
			for _, conj := range c.Or {
				n += constraintsSize(conj)
			}
			continue
		}
		n += 1 + termSize(&c.Left) + uvlen(uint64(c.Op)) + termSize(&c.Right)
	}
	return n
}

func querySize(q *eq.Query) int {
	n := atomsSize(q.Head) + atomsSize(q.Post) + atomsSize(q.Body) + constraintsSize(q.Where)
	n += uvlen(uint64(len(q.Bind)))
	for _, b := range q.Bind {
		n += strSize(b)
	}
	return n + vlen(int64(q.Choose))
}

func groundAtomsSize(gs []eq.GroundAtom) int {
	n := uvlen(uint64(len(gs)))
	for i := range gs {
		n += strSize(gs[i].Rel) + gs[i].Args.EncodedSize()
	}
	return n
}

func groundingSize(g *eq.Grounding) int {
	n := uvlen(uint64(len(g.Vars)))
	for _, v := range g.Vars {
		n += strSize(v)
	}
	n += uvlen(uint64(len(g.Vals)))
	for _, v := range g.Vals {
		n += v.EncodedSize()
	}
	return n + groundAtomsSize(g.Head) + groundAtomsSize(g.Post)
}

// --- encode --------------------------------------------------------------

// AppendEnvelope appends e's encoding to buf. The first set member names
// the kind; an envelope with none encodes as the empty kind.
func AppendEnvelope(buf []byte, e *dist.Envelope) []byte {
	out := grow(buf, envelopeSize(e))
	switch {
	case e.Offer != nil:
		o := e.Offer
		out = append(out, envOffer)
		out = appendStr(out, o.Node)
		out = binary.AppendVarint(out, int64(o.Shard))
		out = binary.AppendUvarint(out, o.ID)
		out = binary.AppendUvarint(out, o.Trace)
		var flags byte
		if o.Query != nil {
			flags |= offerFlagQuery
		}
		if !o.Deadline.IsZero() {
			flags |= offerFlagDeadline
		}
		out = append(out, flags)
		if o.Query != nil {
			out = appendQuery(out, o.Query)
		}
		out = binary.AppendUvarint(out, uint64(len(o.Grounds)))
		for _, g := range o.Grounds {
			out = appendGrounding(out, g)
		}
		out = binary.AppendUvarint(out, uint64(len(o.Tables)))
		for _, t := range o.Tables {
			out = appendStr(out, t)
		}
		out = binary.AppendUvarint(out, o.CSN)
		if !o.Deadline.IsZero() {
			out = appendTime(out, o.Deadline)
		}
	case e.Prepare != nil:
		p := e.Prepare
		out = append(out, envPrepare)
		out = binary.AppendUvarint(out, p.Group)
		out = binary.AppendUvarint(out, p.Offer)
		out = binary.AppendUvarint(out, p.CSN)
		out = appendGroundAtoms(out, p.Ans.Tuples)
		names := make([]string, 0, len(p.Ans.Bindings))
		for k := range p.Ans.Bindings {
			names = append(names, k)
		}
		slices.Sort(names)
		out = binary.AppendUvarint(out, uint64(len(names)))
		for _, k := range names {
			out = appendStr(out, k)
			out = types.EncodeValue(out, p.Ans.Bindings[k])
		}
	case e.Vote != nil:
		v := e.Vote
		out = append(out, envVote)
		out = binary.AppendUvarint(out, v.Group)
		out = binary.AppendUvarint(out, v.Offer)
		out = appendStr(out, v.Node)
		var flags byte
		if v.Yes {
			flags |= voteFlagYes
		}
		if !v.TraceBegin.IsZero() {
			flags |= voteFlagBegin
		}
		out = append(out, flags)
		out = binary.AppendUvarint(out, v.Trace)
		if !v.TraceBegin.IsZero() {
			out = appendTime(out, v.TraceBegin)
		}
		out = binary.AppendUvarint(out, uint64(len(v.Spans)))
		for _, s := range v.Spans {
			out = appendStr(out, s.Name)
			out = binary.AppendUvarint(out, s.Actor)
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Start))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.DurMS))
			out = binary.AppendVarint(out, int64(s.Shard))
			out = appendStr(out, s.Note)
		}
	case e.Decide != nil:
		out = append(out, envDecide)
		out = binary.AppendUvarint(out, e.Decide.Group)
		out = appendBool(out, e.Decide.Commit)
	default:
		out = append(out, envEmpty)
	}
	return out
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendTime(buf []byte, t time.Time) []byte {
	buf = binary.AppendVarint(buf, t.Unix())
	return binary.AppendUvarint(buf, uint64(t.Nanosecond()))
}

func appendTerm(buf []byte, t *eq.Term) []byte {
	switch {
	case t.IsVar:
		return appendStr(append(buf, termVar), t.Name)
	case t.Param > 0:
		return binary.AppendUvarint(append(buf, termParam), uint64(t.Param))
	case t.Arith != nil:
		tag := termSum
		if t.Arith.Sub {
			tag = termDiff
		}
		buf = appendTerm(append(buf, tag), &t.Arith.L)
		return appendTerm(buf, &t.Arith.R)
	}
	return types.EncodeValue(append(buf, termConst), t.Value)
}

func appendAtoms(buf []byte, as []eq.Atom) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(as)))
	for i := range as {
		buf = appendStr(buf, as[i].Rel)
		buf = binary.AppendUvarint(buf, uint64(len(as[i].Args)))
		for j := range as[i].Args {
			buf = appendTerm(buf, &as[i].Args[j])
		}
	}
	return buf
}

func appendConstraints(buf []byte, cs []eq.Constraint) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cs)))
	for i := range cs {
		c := &cs[i]
		if c.Or != nil {
			buf = binary.AppendUvarint(append(buf, consOr), uint64(len(c.Or)))
			for _, conj := range c.Or {
				buf = appendConstraints(buf, conj)
			}
			continue
		}
		buf = appendTerm(append(buf, consCmp), &c.Left)
		buf = binary.AppendUvarint(buf, uint64(c.Op))
		buf = appendTerm(buf, &c.Right)
	}
	return buf
}

func appendQuery(buf []byte, q *eq.Query) []byte {
	buf = appendAtoms(buf, q.Head)
	buf = appendAtoms(buf, q.Post)
	buf = appendAtoms(buf, q.Body)
	buf = appendConstraints(buf, q.Where)
	buf = binary.AppendUvarint(buf, uint64(len(q.Bind)))
	for _, b := range q.Bind {
		buf = appendStr(buf, b)
	}
	return binary.AppendVarint(buf, int64(q.Choose))
}

func appendGroundAtoms(buf []byte, gs []eq.GroundAtom) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(gs)))
	for i := range gs {
		buf = appendStr(buf, gs[i].Rel)
		buf = types.EncodeTuple(buf, gs[i].Args)
	}
	return buf
}

func appendGrounding(buf []byte, g *eq.Grounding) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(g.Vars)))
	for _, v := range g.Vars {
		buf = appendStr(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(g.Vals)))
	for _, v := range g.Vals {
		buf = types.EncodeValue(buf, v)
	}
	buf = appendGroundAtoms(buf, g.Head)
	return appendGroundAtoms(buf, g.Post)
}

// AppendStatus appends st's encoding to buf.
func AppendStatus(buf []byte, st dist.Status) []byte {
	var flags byte
	if st.Known {
		flags |= statusFlagKnown
	}
	if st.Commit {
		flags |= statusFlagCommit
	}
	if st.Pending {
		flags |= statusFlagPending
	}
	buf = grow(buf, uvlen(st.Group)+1)
	return append(binary.AppendUvarint(buf, st.Group), flags)
}

// --- decode --------------------------------------------------------------

// envReader decodes one shard payload. Strings repeat heavily inside an
// offer (every grounding names the same variables and relations), so a
// decode keeps the strings it made and hands an identical one out again.
type envReader struct {
	breader
	strs  [maxInterned]string // the first strings this decode made, for reuse
	nstrs int
	depth int // nesting of the term or constraint being decoded
}

const maxInterned = 64

// name reads a string, reusing an identical one this decode already made.
func (r *envReader) name() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail("string length %d exceeds remaining %d bytes", n, r.remaining())
		return ""
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	for _, s := range r.strs[:r.nstrs] {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if r.nstrs < maxInterned {
		r.strs[r.nstrs] = s
		r.nstrs++
	}
	return s
}

// value reads one types.EncodeValue encoding. The size check rejects a
// non-minimal varint, which would re-encode to other bytes.
func (r *envReader) value() types.Value {
	if r.err != nil {
		return types.Null()
	}
	if r.pos < len(r.buf) && types.Kind(r.buf[r.pos]) == types.KindString {
		r.pos++
		return types.Str(r.name())
	}
	v, n, err := types.DecodeValue(r.buf[r.pos:])
	if err != nil {
		r.fail("value: %v", err)
		return types.Null()
	}
	if v.EncodedSize() != n {
		r.fail("non-minimal value encoding")
		return types.Null()
	}
	r.pos += n
	return v
}

// items reads an element count and rejects one whose elements, at least
// min bytes each, cannot fit in the remaining payload.
func (r *envReader) items(what string, min int) int {
	n := r.count(what)
	if n > r.remaining()/min {
		r.fail("%s count %d exceeds remaining %d bytes", what, n, r.remaining())
		return 0
	}
	return n
}

func (r *envReader) flag(allowed byte) byte {
	b := r.u8()
	if b&^allowed != 0 {
		r.fail("unknown flag bits %#x", b)
	}
	return b
}

func (r *envReader) boolean() bool { return r.flag(1) == 1 }

func (r *envReader) time() time.Time {
	sec := r.varint()
	nsec := r.uvarint()
	if r.err != nil {
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	if nsec >= 1e9 || t.IsZero() || t.Unix() != sec {
		r.fail("bad time %d.%d", sec, nsec)
		return time.Time{}
	}
	return t
}

func (r *envReader) nest() bool {
	if r.depth++; r.depth > maxNesting {
		r.fail("nesting deeper than %d", maxNesting)
		return false
	}
	return r.err == nil
}

func (r *envReader) term() eq.Term {
	var t eq.Term
	if !r.nest() {
		return t
	}
	defer func() { r.depth-- }()
	switch tag := r.u8(); tag {
	case termConst:
		t.Value = r.value()
	case termVar:
		t.IsVar, t.Name = true, r.name()
	case termParam:
		p := r.uvarint()
		if p == 0 || p > math.MaxInt32 {
			r.fail("parameter %d out of range", p)
		}
		t.Param = int32(p)
	case termSum, termDiff:
		a := &eq.Arith{Sub: tag == termDiff}
		a.L = r.term()
		a.R = r.term()
		t.Arith = a
	default:
		r.fail("unknown term tag %d", tag)
	}
	return t
}

func (r *envReader) atoms() []eq.Atom {
	n := r.items("atom", 2)
	if n == 0 {
		return nil
	}
	as := make([]eq.Atom, n)
	for i := 0; i < n && r.err == nil; i++ {
		as[i].Rel = r.name()
		if m := r.items("term", 2); m > 0 {
			as[i].Args = make([]eq.Term, m)
			for j := 0; j < m && r.err == nil; j++ {
				as[i].Args[j] = r.term()
			}
		}
	}
	return as
}

func (r *envReader) constraints() []eq.Constraint {
	n := r.items("constraint", 2)
	if n == 0 || !r.nest() {
		return nil
	}
	defer func() { r.depth-- }()
	cs := make([]eq.Constraint, n)
	for i := 0; i < n && r.err == nil; i++ {
		switch tag := r.u8(); tag {
		case consCmp:
			cs[i].Left = r.term()
			op := r.uvarint()
			if op > uint64(eq.OpGe) {
				r.fail("unknown operator %d", op)
			}
			cs[i].Op = eq.CmpOp(op)
			cs[i].Right = r.term()
		case consOr:
			// Non-nil even when empty: Or's presence, not its length,
			// makes a disjunction.
			cs[i].Or = make([][]eq.Constraint, r.count("disjunct"))
			for j := range cs[i].Or {
				cs[i].Or[j] = r.constraints()
			}
		default:
			r.fail("unknown constraint tag %d", tag)
		}
	}
	return cs
}

func (r *envReader) strings(what string) []string {
	n := r.count(what)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := 0; i < n && r.err == nil; i++ {
		ss[i] = r.name()
	}
	return ss
}

func (r *envReader) query() *eq.Query {
	q := &eq.Query{}
	q.Head = r.atoms()
	q.Post = r.atoms()
	q.Body = r.atoms()
	q.Where = r.constraints()
	q.Bind = r.strings("bind")
	q.Choose = int(r.varint())
	return q
}

func (r *envReader) groundAtoms() []eq.GroundAtom {
	n := r.items("ground atom", 2)
	if n == 0 {
		return nil
	}
	gs := make([]eq.GroundAtom, n)
	for i := 0; i < n && r.err == nil; i++ {
		gs[i].Rel = r.name()
		if m := r.count("value"); m > 0 {
			gs[i].Args = make(types.Tuple, m)
			for j := 0; j < m && r.err == nil; j++ {
				gs[i].Args[j] = r.value()
			}
		}
	}
	return gs
}

// groundings reads an offer's groundings into one backing array.
func (r *envReader) groundings() []*eq.Grounding {
	n := r.items("grounding", 4)
	if n == 0 {
		return nil
	}
	backing := make([]eq.Grounding, n)
	out := make([]*eq.Grounding, n)
	for i := 0; i < n && r.err == nil; i++ {
		g := &backing[i]
		out[i] = g
		g.Vars = r.strings("variable")
		if m := r.count("value"); m > 0 {
			g.Vals = make([]types.Value, m)
			for j := 0; j < m && r.err == nil; j++ {
				g.Vals[j] = r.value()
			}
		}
		g.Head = r.groundAtoms()
		g.Post = r.groundAtoms()
	}
	return out
}

// DecodeEnvelope decodes one AppendEnvelope encoding.
func DecodeEnvelope(payload []byte) (dist.Envelope, error) {
	r := envReader{breader: breader{buf: payload}}
	var e dist.Envelope
	switch kind := r.u8(); kind {
	case envEmpty:
	case envOffer:
		o := &dist.Offer{}
		o.Node = r.name()
		o.Shard = int(r.varint())
		o.ID = r.uvarint()
		o.Trace = r.uvarint()
		flags := r.flag(offerFlagQuery | offerFlagDeadline)
		if flags&offerFlagQuery != 0 {
			o.Query = r.query()
		}
		o.Grounds = r.groundings()
		o.Tables = r.strings("table")
		o.CSN = r.uvarint()
		if flags&offerFlagDeadline != 0 {
			o.Deadline = r.time()
		}
		e.Offer = o
	case envPrepare:
		p := &dist.Prepare{}
		p.Group = r.uvarint()
		p.Offer = r.uvarint()
		p.CSN = r.uvarint()
		p.Ans.Tuples = r.groundAtoms()
		if n := r.items("binding", 2); n > 0 {
			p.Ans.Bindings = make(map[string]types.Value, n)
			prev := ""
			for i := 0; i < n && r.err == nil; i++ {
				k := r.name()
				if i > 0 && k <= prev {
					r.fail("binding %q out of order", k)
				}
				p.Ans.Bindings[k] = r.value()
				prev = k
			}
		}
		e.Prepare = p
	case envVote:
		v := &dist.Vote{}
		v.Group = r.uvarint()
		v.Offer = r.uvarint()
		v.Node = r.name()
		flags := r.flag(voteFlagYes | voteFlagBegin)
		v.Yes = flags&voteFlagYes != 0
		v.Trace = r.uvarint()
		if flags&voteFlagBegin != 0 {
			v.TraceBegin = r.time()
		}
		if n := r.items("span", 20); n > 0 {
			v.Spans = make([]obs.Span, n)
			for i := 0; i < n && r.err == nil; i++ {
				s := &v.Spans[i]
				s.Name = r.name()
				s.Actor = r.uvarint()
				s.Start = r.float()
				s.DurMS = r.float()
				s.Shard = int(r.varint())
				s.Note = r.name()
			}
		}
		e.Vote = v
	case envDecide:
		e.Decide = &dist.Decide{Group: r.uvarint(), Commit: r.boolean()}
	default:
		r.fail("unknown envelope kind %d", kind)
	}
	if err := r.done(); err != nil {
		return dist.Envelope{}, err
	}
	return e, nil
}

func (r *envReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return f
}

// DecodeStatus decodes one AppendStatus encoding.
func DecodeStatus(payload []byte) (dist.Status, error) {
	r := envReader{breader: breader{buf: payload}}
	st := dist.Status{Group: r.uvarint()}
	flags := r.flag(statusFlagKnown | statusFlagCommit | statusFlagPending)
	st.Known = flags&statusFlagKnown != 0
	st.Commit = flags&statusFlagCommit != 0
	st.Pending = flags&statusFlagPending != 0
	if err := r.done(); err != nil {
		return dist.Status{}, err
	}
	return st, nil
}
