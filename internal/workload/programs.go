package workload

import (
	"fmt"
	"time"

	"repro/entangle"
	"repro/internal/eq"
	"repro/internal/types"
)

// Kind enumerates the six §5.2 workloads.
type Kind int

// Workload kinds. The -T variants are transactions; the -Q variants run
// the same code without a transaction block (autocommit).
const (
	NoSocialT Kind = iota
	SocialT
	EntangledT
	NoSocialQ
	SocialQ
	EntangledQ
)

func (k Kind) String() string {
	switch k {
	case NoSocialT:
		return "NoSocial-T"
	case SocialT:
		return "Social-T"
	case EntangledT:
		return "Entangled-T"
	case NoSocialQ:
		return "NoSocial-Q"
	case SocialQ:
		return "Social-Q"
	case EntangledQ:
		return "Entangled-Q"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Entangled reports whether the kind contains entangled queries (and so
// must go through the run scheduler).
func (k Kind) Entangled() bool { return k == EntangledT || k == EntangledQ }

// Autocommit reports whether the kind is a -Q (non-transactional) variant.
func (k Kind) Autocommit() bool { return k >= NoSocialQ }

// DefaultTimeout for workload transactions.
const DefaultTimeout = 30 * time.Second

// lookupHometown reads the user's hometown (first statement of every
// Appendix D workload).
func lookupHometown(tx *entangle.Tx, uid int) (string, error) {
	rows, err := tx.Lookup("User", []string{"uid"}, entangle.Values(types.Int(int64(uid))))
	if err != nil {
		return "", err
	}
	if len(rows) == 0 {
		return "", fmt.Errorf("workload: no user %d", uid)
	}
	return rows[0][1].Str64(), nil
}

// lookupFlight finds the flight id for a route.
func lookupFlight(tx *entangle.Tx, source, dest string) (types.Value, error) {
	rows, err := tx.Lookup("Flight", []string{"source", "destination"},
		entangle.Values(types.Str(source), types.Str(dest)))
	if err != nil {
		return types.Null(), err
	}
	if len(rows) == 0 {
		return types.Null(), fmt.Errorf("workload: no flight %s -> %s", source, dest)
	}
	return rows[0][2], nil
}

// reserve books the flight.
func reserve(tx *entangle.Tx, uid int, fid types.Value) error {
	_, err := tx.Insert("Reserve", entangle.Values(types.Int(int64(uid)), fid))
	return err
}

// NoSocial builds the individual travel-booking workload (Appendix D,
// first template): hometown lookup, flight lookup, reservation.
func (d *Dataset) NoSocial(kind Kind, uid, dest int) entangle.Program {
	return entangle.Program{
		Name:       kind.String(),
		Timeout:    DefaultTimeout,
		Autocommit: kind.Autocommit(),
		Body: func(tx *entangle.Tx) error {
			town, err := lookupHometown(tx, uid)
			if err != nil {
				return err
			}
			fid, err := lookupFlight(tx, town, DestName(dest))
			if err != nil {
				return err
			}
			return reserve(tx, uid, fid)
		},
	}
}

// Social builds the friends-aware booking (Appendix D, second template):
// additionally fetch a same-hometown friend who might be flying.
func (d *Dataset) Social(kind Kind, uid, dest int) entangle.Program {
	return entangle.Program{
		Name:       kind.String(),
		Timeout:    DefaultTimeout,
		Autocommit: kind.Autocommit(),
		Body: func(tx *entangle.Tx) error {
			town, err := lookupHometown(tx, uid)
			if err != nil {
				return err
			}
			// "SELECT uid2 FROM Friends, User u1, User u2 WHERE ... LIMIT 1"
			// — one join statement server-side: a friends index probe plus
			// a hometown check, not a round trip per friend.
			friends, err := tx.Lookup("Friends", []string{"uid1"}, entangle.Values(types.Int(int64(uid))))
			if err != nil {
				return err
			}
			if len(friends) > 0 {
				if _, err := tx.Lookup("User", []string{"uid", "hometown"},
					entangle.Values(friends[0][1], types.Str(town))); err != nil {
					return err
				}
			}
			fid, err := lookupFlight(tx, town, DestName(dest))
			if err != nil {
				return err
			}
			return reserve(tx, uid, fid)
		},
	}
}

// rendezvousQuery coordinates uid with friend on a common destination
// reachable from their (shared) hometown: the Appendix D entangled
// template, with the destination chosen by entanglement.
//
//	Head: Rendezvous(uid, ?dest)
//	Post: Rendezvous(friend, ?dest)
//	Body: Flight(?src, ?dest, ?fid), ?src = hometown
//
// The program reads only ?dest back (Bind), so the query does not read fid.
func rendezvousQuery(rel string, uid, friend int, hometown string) *eq.Query {
	return &eq.Query{
		Head: []eq.Atom{eq.NewAtom(rel, eq.CInt(int64(uid)), eq.V("dest"))},
		Post: []eq.Atom{eq.NewAtom(rel, eq.CInt(int64(friend)), eq.V("dest"))},
		Body: []eq.Atom{eq.NewAtom("Flight", eq.V("src"), eq.V("dest"), eq.V("fid"))},
		Where: []eq.Constraint{
			{Left: eq.V("src"), Op: eq.OpEq, Right: eq.CStr(hometown)},
		},
		Bind:   []string{"dest"},
		Choose: 1,
	}
}

// Entangled builds the coordinated booking (Appendix D, third template):
// coordinate with a friend on a destination, then book the flight there.
func (d *Dataset) Entangled(kind Kind, uid, friend int) entangle.Program {
	return d.entangledOn("Rendezvous", kind, uid, friend)
}

func (d *Dataset) entangledOn(rel string, kind Kind, uid, friend int) entangle.Program {
	return entangle.Program{
		Name:       kind.String(),
		Timeout:    DefaultTimeout,
		Autocommit: kind.Autocommit(),
		Body: func(tx *entangle.Tx) error {
			town, err := lookupHometown(tx, uid)
			if err != nil {
				return err
			}
			a := tx.Entangle(rendezvousQuery(rel, uid, friend, town))
			if a.Status != eq.Answered {
				return fmt.Errorf("workload: rendezvous %v", a.Status)
			}
			dest := a.Bindings["dest"].Str64()
			fid, err := lookupFlight(tx, town, dest)
			if err != nil {
				return err
			}
			return reserve(tx, uid, fid)
		},
	}
}

// Build constructs one program of the given kind. For entangled kinds the
// second user is the coordination partner; for the others it is ignored.
func (d *Dataset) Build(kind Kind, uid, partnerOrDest int) entangle.Program {
	switch kind {
	case NoSocialT, NoSocialQ:
		return d.NoSocial(kind, uid, partnerOrDest%d.cfg.Destinations)
	case SocialT, SocialQ:
		return d.Social(kind, uid, partnerOrDest%d.cfg.Destinations)
	default:
		return d.Entangled(kind, uid, partnerOrDest)
	}
}

// Batch produces n programs of the given kind. Entangled batches consist
// of complete coordination pairs (n rounded up to even), mirroring §5.2.2:
// "transactions were submitted in batches designed so that each
// transaction would find a coordination partner within the same batch".
func (d *Dataset) Batch(kind Kind, n int) []entangle.Program {
	var out []entangle.Program
	if kind.Entangled() {
		for len(out) < n {
			u, v := d.NextPair()
			out = append(out, d.Entangled(kind, u, v), d.Entangled(kind, v, u))
		}
		return out
	}
	for i := 0; i < n; i++ {
		out = append(out, d.Build(kind, d.RandomUser(), d.RandomDest()))
	}
	return out
}

// OrphanPair returns an entangled transaction whose partner is withheld
// (for the Figure 6(b) pending-transaction experiment) together with the
// partner program to be submitted at the very end of the experiment. Each
// orphan pair coordinates on a private answer relation so that long-lived
// orphans cannot accidentally coordinate with the main stream.
func (d *Dataset) OrphanPair() (orphan, partner entangle.Program) {
	u, v := d.NextPair()
	d.orphanSeq++
	rel := fmt.Sprintf("Orphan_%d", d.orphanSeq)
	orphan = d.entangledOn(rel, EntangledT, u, v)
	partner = d.entangledOn(rel, EntangledT, v, u)
	// Orphans pend for the whole experiment; give them room.
	orphan.Timeout = 10 * DefaultTimeout
	partner.Timeout = 10 * DefaultTimeout
	return orphan, partner
}
