package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/entangle"
)

// Small configurations keep these integration tests quick while still
// asserting the paper's qualitative claims.

func smallCfg() Config {
	return Config{N: 60, Users: 400, Seed: 3, Engine: entangle.Options{StmtLatency: 100 * time.Microsecond}}
}

func TestFigure6aShapes(t *testing.T) {
	series, err := Figure6a(smallCfg(), []int{2, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("series = %d", len(series))
	}
	byName := make(map[string][]Point)
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("%s has %d points", s.Name, len(s.Points))
		}
		byName[s.Name] = s.Points
	}
	// Claim 1: time decreases with connection count for the -T workloads.
	for _, name := range []string{"NoSocial-T", "Social-T", "Entangled-T"} {
		pts := byName[name]
		if pts[0].Seconds <= pts[2].Seconds {
			t.Errorf("%s: time did not fall with connections: %+v", name, pts)
		}
	}
	// Claim 2: Entangled-T costs at least as much as NoSocial-T at low
	// concurrency (entanglement adds evaluation work, §5.2.2).
	if byName["Entangled-T"][0].Seconds < byName["NoSocial-T"][0].Seconds*0.5 {
		t.Errorf("Entangled-T unexpectedly cheap: %v vs %v",
			byName["Entangled-T"][0].Seconds, byName["NoSocial-T"][0].Seconds)
	}
}

func TestFigure6bShapes(t *testing.T) {
	series, err := Figure6b(Config{N: 40, Users: 400, Seed: 3, Engine: entangle.Options{StmtLatency: 50 * time.Microsecond}},
		[]int{4, 16}, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	// Claim: more pending transactions cost more, at any frequency.
	for _, s := range series {
		if s.Points[1].Seconds <= s.Points[0].Seconds*0.5 {
			t.Errorf("%s: time not increasing in p: %+v", s.Name, s.Points)
		}
	}
}

func TestFigure6cRuns(t *testing.T) {
	series, err := Figure6c(Config{N: 24, Users: 600, Seed: 3, Engine: entangle.Options{StmtLatency: 50 * time.Microsecond}},
		[]int{2, 4}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 { // 2 structures x 1 frequency
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s points = %d", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Seconds <= 0 {
				t.Errorf("%s: nonpositive time %v", s.Name, p)
			}
		}
	}
}

func TestPrintSeries(t *testing.T) {
	var buf bytes.Buffer
	PrintSeries(&buf, "Figure 6(a)", "connections", []Series{
		{Name: "NoSocial-T", Points: []Point{{X: 10, Seconds: 1.5}, {X: 20, Seconds: 0.8}}},
		{Name: "Entangled-T", Points: []Point{{X: 10, Seconds: 1.9}, {X: 20, Seconds: 1.0}}},
	})
	out := buf.String()
	for _, want := range []string{"Figure 6(a)", "connections", "NoSocial-T", "Entangled-T", "1.500s", "0.800s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (&Config{}).withDefaults()
	if c.N == 0 || c.Users == 0 || c.Engine.StmtLatency == 0 || c.Seed == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}
