package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleIntervals() []Interval {
	return []Interval{
		{
			Index: 0, Measuring: false, EndCycle: 2_000_000, Cycles: 2_000_000,
			ActiveRatio: 1, L2Hits: 100, L2Misses: 40, L2Writebacks: 7, L2Fills: 40,
			Refreshes: 65536, BankBusyCycles: 65536,
			MMReads: 40, MMWritebacks: 7, MMQueueStallCycles: 12,
			MMChannelBusyCycles: 601.6,
			Energy:              Energy{L2DynJ: 1.2345678901e-05, TotalJ: 0.012345678901},
		},
		{
			Index: 1, Measuring: true, EndCycle: 4_000_000, Cycles: 2_000_000,
			ActiveRatio: 0.53125, ActiveWays: []int{16, 8, 4, 16, 2, 2, 16, 4},
			L2Hits: 900, L2Misses: 11, Refreshes: 30000, BankBusyCycles: 30000,
			Policy:            PolicyStats{SkippedRefreshes: 123, Invalidations: 4},
			LinesTransitioned: 2048, ReconfigWritebacks: 17,
			MMWriteBufPeak: 9, MMWriteBufStallCycles: 3,
			Energy: Energy{TotalJ: 0.001},
		},
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	for _, iv := range sampleIntervals() {
		c.ObserveInterval(iv)
	}
	if got := len(c.Intervals()); got != 2 {
		t.Fatalf("collected %d intervals, want 2", got)
	}
	if m := c.Measured(); len(m) != 1 || m[0].Index != 1 {
		t.Fatalf("Measured() = %+v, want the single measuring interval", m)
	}
	c.Reset()
	if len(c.Intervals()) != 0 {
		t.Fatal("Reset did not clear intervals")
	}
}

func TestConfigHash(t *testing.T) {
	type cfg struct {
		A int
		B float64
	}
	h1 := ConfigHash(cfg{1, 2.5})
	h2 := ConfigHash(cfg{1, 2.5})
	h3 := ConfigHash(cfg{2, 2.5})
	if h1 != h2 {
		t.Errorf("hash not stable: %s vs %s", h1, h2)
	}
	if h1 == h3 {
		t.Errorf("hash insensitive to field change: %s", h1)
	}
	if len(h1) != 16 {
		t.Errorf("hash %q not 16 hex digits", h1)
	}
}

func TestMarshalCanonicalDeterministicAndRounded(t *testing.T) {
	v := map[string]any{
		"zeta":  1.0 / 3.0,
		"alpha": []float64{math.Pi, 2},
		"count": 12345678901234567,
	}
	b1, err := MarshalCanonical(v)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := MarshalCanonical(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("canonical marshal not deterministic:\n%s\nvs\n%s", b1, b2)
	}
	s := string(b1)
	if !strings.Contains(s, "0.333333333333") || strings.Contains(s, "0.3333333333333333") {
		t.Errorf("float not rounded to 12 significant digits:\n%s", s)
	}
	if !strings.Contains(s, "12345678901234567") {
		t.Errorf("integer mangled by rounding:\n%s", s)
	}
	// Keys must come out sorted for diff-friendliness.
	if strings.Index(s, `"alpha"`) > strings.Index(s, `"zeta"`) {
		t.Errorf("keys not sorted:\n%s", s)
	}
}

func TestDirSink(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := RunArtifact{
		SchemaVersion: SchemaVersion,
		Manifest:      NewManifest("esteem/gobmk+mcf/2c", 42, struct{ X int }{7}).Deterministic(),
		Summary:       RunSummary{Instructions: 1000, Energy: Energy{TotalJ: 0.5}},
		Intervals:     sampleIntervals(),
	}
	if err := sink.WriteRun(3, a); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "0003-esteem_gobmk_mcf_2c.json"))
	if err != nil {
		t.Fatalf("artifact file missing: %v", err)
	}
	var back RunArtifact
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion || back.Summary.Instructions != 1000 || len(back.Intervals) != 2 {
		t.Fatalf("artifact did not round trip: %+v", back)
	}
	if back.Manifest.StartedAt != "" || back.Manifest.WallMillis != 0 {
		t.Fatalf("Deterministic() left timing fields: %+v", back.Manifest)
	}
}

func TestSanitizeLabel(t *testing.T) {
	if got := SanitizeLabel("rpv/a+b/2c"); got != "rpv_a_b_2c" {
		t.Errorf("SanitizeLabel = %q", got)
	}
}
