package main

import "fmt"

// booking is one Bookings row as read back.
type booking struct {
	fno   int64
	fdate string
	count int
}

// checkGroups verifies the pair contract against the rows read back from
// every shard: a committed group has exactly one row per member, both on
// the same (fno, fdate), on a flight to the requested destination; a group
// that did not commit has no row at all (a strict subset would be a
// widow); no row belongs to nobody. It returns the number of bad groups
// and a description of the first. A group that cleanly failed to commit
// passes here: the driver has already counted it as failed.
func checkGroups(sp spec, groups []pairOutcome, rows map[string]booking) (bad int, first string) {
	note := func(format string, args ...any) {
		if bad++; first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	claimed := 0
	for _, g := range groups {
		ra, okA := rows[g.u.a.name]
		rb, okB := rows[g.u.b.name]
		if okA {
			claimed++
		}
		if okB {
			claimed++
		}
		switch {
		case !g.committed && (okA || okB):
			note("group %s did not commit but has rows (a=%v b=%v)", g.u.a.name, okA, okB)
		case !g.committed:
		case !okA || !okB:
			note("widow: group %s committed with rows a=%v b=%v", g.u.a.name, okA, okB)
		case ra.count != 1 || rb.count != 1:
			note("group %s has %d+%d rows, want 1+1", g.u.a.name, ra.count, rb.count)
		case ra.fno != rb.fno || ra.fdate != rb.fdate:
			note("group %s disagrees: (%d,%s) vs (%d,%s)", g.u.a.name, ra.fno, ra.fdate, rb.fno, rb.fdate)
		case int(ra.fno-1)/sp.perDest != g.u.dest || ra.fdate != flightDate(sp, int(ra.fno)):
			note("group %s booked flight %d on %s, not a flight to %s", g.u.a.name, ra.fno, ra.fdate, destName(g.u.dest))
		}
	}
	if claimed != len(rows) {
		note("%d Bookings rows belong to no attempted group", len(rows)-claimed)
	}
	return bad, first
}

// readBookings reads Bookings back from every shard, one batch number at
// a time, and also returns the table's row count summed over shards.
func (d *deployment) readBookings(batches map[int]bool) (rows map[string]booking, total int, err error) {
	rows = map[string]booking{}
	for _, c := range d.shardClients() {
		for b := range batches {
			res, err := c.Query(fmt.Sprintf("SELECT name, fno, fdate FROM Bookings WHERE batch=%d", b))
			if err != nil {
				return nil, 0, err
			}
			for _, r := range res.Rows {
				name := r[0].Str64()
				rows[name] = booking{r[1].Int64(), r[2].String(), rows[name].count + 1}
			}
		}
		ti, err := c.Tables()
		if err != nil {
			return nil, 0, err
		}
		for _, t := range ti {
			if t.Name == "Bookings" {
				total += t.Rows
			}
		}
	}
	return rows, total, nil
}

// check runs the workload's output check against the live deployment and
// returns the number of units that fail it.
func (d *deployment) check(states []*driveState) (int, error) {
	if d.sp.isPair() {
		var groups []pairOutcome
		batches := map[int]bool{}
		for _, st := range states {
			groups = append(groups, st.groups...)
		}
		for _, g := range groups {
			batches[g.u.batch] = true
		}
		rows, total, err := d.readBookings(batches)
		if err != nil {
			return 0, err
		}
		bad, first := checkGroups(d.sp, groups, rows)
		if sum := sumCounts(rows); sum != total {
			bad++
			first = fmt.Sprintf("Bookings holds %d rows, batches read back %d", total, sum)
		}
		if bad > 0 {
			return bad, fmt.Errorf("output check: %d bad groups, first: %s", bad, first)
		}
		return 0, nil
	}
	return d.checkNotes(states)
}

func sumCounts(rows map[string]booking) int {
	n := 0
	for _, r := range rows {
		n += r.count
	}
	return n
}

// checkNotes verifies classical_mix's final state: the row count is the
// preload plus every acknowledged insert, and (a sample of) the keys each
// driver wrote read back the last acknowledged value. The
// per-statement check — every SELECT returned the value last acknowledged
// for its key — already ran inline in driveMix.
func (d *deployment) checkNotes(states []*driveState) (int, error) {
	c := d.clients[0]
	want := d.sp.notes
	for _, st := range states {
		want += st.mix.inserts
	}
	ti, err := c.Tables()
	if err != nil {
		return 0, err
	}
	for _, t := range ti {
		if t.Name == "Notes" && t.Rows != want {
			return 1, fmt.Errorf("output check: Notes holds %d rows, want %d", t.Rows, want)
		}
	}
	const sample = 1000
	bad, first := 0, ""
	for _, st := range states {
		n := 0
		for k, v := range st.mix.written {
			if n++; n > sample {
				break
			}
			res, err := c.Query(fmt.Sprintf("SELECT n FROM Notes WHERE id=%d", k))
			if err != nil {
				return 0, err
			}
			if len(res.Rows) != 1 || res.Rows[0][0].Int64() != v {
				if bad++; first == "" {
					first = fmt.Sprintf("key %d reads %v, want %d", k, res.Rows, v)
				}
			}
		}
	}
	if bad > 0 {
		return bad, fmt.Errorf("output check: %d bad keys, first: %s", bad, first)
	}
	return 0, nil
}
