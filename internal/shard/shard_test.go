package shard

import "testing"

func TestHomeDeterministicAndTotal(t *testing.T) {
	m := New([]string{"a:1", "b:2"})
	for _, key := range []string{"", "Mickey", "Minnie", "O''Brien"} {
		h := m.Home(key)
		if h != m.Home(key) {
			t.Fatalf("Home(%q) not deterministic", key)
		}
		if h < 0 || h >= m.Shards {
			t.Fatalf("Home(%q) = %d out of range", key, h)
		}
	}
	// The zero map routes everything to shard 0.
	var z *Map
	if z.Home("anything") != 0 {
		t.Fatal("nil map must route to shard 0")
	}
}

func TestOverridesWin(t *testing.T) {
	m := New([]string{"a:1", "b:2"})
	key := "Mickey"
	other := 1 - m.Home(key)
	m.Overrides = map[string]int{key: other}
	if m.Home(key) != other {
		t.Fatalf("override ignored: Home(%q) = %d, want %d", key, m.Home(key), other)
	}
	// Out-of-range overrides are ignored, not fatal.
	m.Overrides[key] = 99
	if h := m.Home(key); h < 0 || h >= m.Shards {
		t.Fatalf("bad override leaked: %d", h)
	}
}

func TestRouteKey(t *testing.T) {
	cases := []struct{ script, want string }{
		{"SELECT 'Mickey', 1 INTO ANSWER X", "Mickey"},
		{"  BEGIN TRANSACTION;\nSELECT 'Minnie', fno", "Minnie"},
		{"SELECT 'O''Brien', 1", "O'Brien"},
		{"SELECT 1, 2 FROM T", ""},
		{"SELECT 'unterminated", "unterminated"},
		{"", ""},
	}
	for _, c := range cases {
		if got := RouteKey(c.script); got != c.want {
			t.Errorf("RouteKey(%q) = %q, want %q", c.script, got, c.want)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	m := New([]string{"a:1", "b:2"})
	m.Overrides = map[string]int{"Mickey": 1}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != m.Version || got.Shards != m.Shards || got.Home("Mickey") != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := Unmarshal([]byte("{")); err == nil {
		t.Fatal("bad payload must error")
	}
}
