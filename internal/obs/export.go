package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// canonicalDigits is the significant-digit budget for floats in
// canonical JSON. 12 digits keep every physically meaningful digit of
// the energy model while absorbing last-ulp differences from
// compiler-dependent floating-point contraction (e.g. FMA fusing on
// arm64), so golden files diff cleanly across toolchains.
const canonicalDigits = 12

// MarshalCanonical renders v as deterministic, diff-friendly JSON:
// two-space indented, map keys sorted (encoding/json's default), and
// every float rounded to canonicalDigits significant digits. Golden
// files and run artifacts are written with it so that any change in
// simulated behaviour shows up as a reviewable textual diff.
func MarshalCanonical(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var tree any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(canonicalize(tree), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// canonicalize walks a decoded JSON tree rounding numeric leaves.
func canonicalize(v any) any {
	switch t := v.(type) {
	case map[string]any:
		for k, e := range t {
			t[k] = canonicalize(e)
		}
		return t
	case []any:
		for i, e := range t {
			t[i] = canonicalize(e)
		}
		return t
	case json.Number:
		return roundNumber(t)
	default:
		return v
	}
}

// roundNumber rounds a JSON number to canonicalDigits significant
// digits, leaving integers (no '.', 'e') untouched so counters stay
// exact.
func roundNumber(n json.Number) json.Number {
	s := n.String()
	if !bytes.ContainsAny([]byte(s), ".eE") {
		return n
	}
	f, err := n.Float64()
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
		return n
	}
	return json.Number(strconv.FormatFloat(f, 'g', canonicalDigits, 64))
}
