package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sampleArtifact builds a representative artifact for round-trip
// tests.
func readSampleArtifact() RunArtifact {
	return RunArtifact{
		SchemaVersion: SchemaVersion,
		Manifest: Manifest{
			Label:      "esteem/gobmk/1c",
			Technique:  "esteem",
			Workload:   []string{"gobmk"},
			Cores:      1,
			Seed:       42,
			ConfigHash: "deadbeefdeadbeef",
			GoVersion:  "go1.24.0",
			GOOS:       "linux",
			GOARCH:     "amd64",
		},
		Summary: RunSummary{
			Instructions: 1000,
			Cycles:       2500,
			Energy:       Energy{L2LeakJ: 0.25, TotalJ: 0.5},
			L2Hits:       10,
			Cores: []CoreSummary{
				{Benchmark: "gobmk", Instructions: 1000, Cycles: 2500, IPC: 0.4},
			},
		},
		Intervals: []Interval{
			{Index: 0, Measuring: false, EndCycle: 100, Cycles: 100},
			{Index: 1, Measuring: true, EndCycle: 200, Cycles: 100, ActiveRatio: 0.5},
		},
	}
}

func TestParseRunRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := readSampleArtifact()
	if err := EncodeRun(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ParseRun(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Manifest, want.Manifest) {
		t.Fatalf("manifest round trip: got %+v want %+v", got.Manifest, want.Manifest)
	}
	if len(got.Summary.Cores) != 1 || got.Summary.Cores[0] != want.Summary.Cores[0] {
		t.Fatalf("summary cores round trip: %+v", got.Summary.Cores)
	}
	if len(got.Intervals) != 2 || !reflect.DeepEqual(got.Intervals[1], want.Intervals[1]) {
		t.Fatalf("intervals round trip: %+v", got.Intervals)
	}
}

func TestParseRunRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRun(&buf, readSampleArtifact()); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"malformed":     `{"schema_version": `,
		"empty":         ``,
		"wrong schema":  strings.Replace(good, fmt.Sprintf(`"schema_version": %d`, SchemaVersion), `"schema_version": 99`, 1),
		"unknown field": strings.Replace(good, `"schema_version"`, `"unknown_field": 1, "schema_version"`, 1),
		"trailing data": good + `{"another": "doc"}`,
	}
	for name, input := range cases {
		if _, err := ParseRun([]byte(input)); err == nil {
			t.Errorf("%s: ParseRun accepted invalid input", name)
		}
	}
}
