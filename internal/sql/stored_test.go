package sql

import (
	"testing"
	"unsafe"

	"repro/internal/core"
)

// TestStoredStringsOwnTheirMemory: the lexer slices string literals out of
// the script, but a string an INSERT or UPDATE stores is a copy — a stored
// row must not keep its whole script alive.
func TestStoredStringsOwnTheirMemory(t *testing.T) {
	e, cat := newSQLEngine(t)
	within := func(s, src string) bool {
		p, base := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
		return p >= base && p < base+uintptr(len(src))
	}
	for _, tc := range []struct{ script, check, want string }{
		{"INSERT INTO Flights VALUES (900, '2011-05-03', 'Oslo')", "SELECT dest FROM Flights WHERE fno = 900", "Oslo"},
		{"UPDATE Flights SET dest = 'Bergen' WHERE fno = 900", "SELECT dest FROM Flights WHERE fno = 900", "Bergen"},
	} {
		if o := runScript(t, e, cat, tc.script); o.Status != core.StatusCommitted {
			t.Fatalf("%s: %+v", tc.script, o)
		}
		res := query(t, e, cat, tc.check)
		if len(res.Rows) != 1 || res.Rows[0][0].Str64() != tc.want {
			t.Fatalf("%s: rows %v", tc.check, res.Rows)
		}
		if got := res.Rows[0][0].Str64(); within(got, tc.script) {
			t.Errorf("%s: the stored %q points into the script", tc.script, got)
		}
	}
}
