package trace

import (
	"fmt"
	"testing"

	"repro/internal/ckpt"
)

// fnv64a folds one reference into a running FNV-1a digest over
// (Addr, Gap, Write, Kind), little-endian.
func fnv64a(h uint64, r Ref) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h = (h ^ (r.Addr >> (8 * i) & 0xFF)) * prime
	}
	gap := uint64(r.Gap)
	for i := 0; i < 8; i++ {
		h = (h ^ (gap >> (8 * i) & 0xFF)) * prime
	}
	var w uint64
	if r.Write {
		w = 1
	}
	h = (h ^ w) * prime
	return (h ^ uint64(r.Kind)) * prime
}

const fnvOffset = 1469598103934665603

// feed advances g by n references, folding each into h.
func feed(g *Generator, n int, h uint64) uint64 {
	for i := 0; i < n; i++ {
		h = fnv64a(h, g.Next())
	}
	return h
}

// digestCase is one pinned stream: the digest of its first total
// references, and of the generator's checkpoint bytes after ckptAt.
type digestCase struct {
	name         string
	seed         uint64
	total, ckpAt int
}

func digestCases() []digestCase {
	var cs []digestCase
	for _, p := range Profiles() {
		for _, seed := range []uint64{1, 0x5EED} {
			cs = append(cs, digestCase{p.Name, seed, 200_000, 100_000})
		}
	}
	// h264ref switches phase every 400k references: run across two
	// switches and checkpoint exactly on the second one, while it is
	// still pending.
	cs = append(cs, digestCase{"h264ref", 7, 1_000_000, 800_000})
	return cs
}

func (c digestCase) key() string { return fmt.Sprintf("%s/%#x/%d", c.name, c.seed, c.total) }

// streamDigests pins every profile's reference stream and checkpoint
// bytes, recorded before the generator's fast path existed. They are
// independent of the simulator goldens: a change that alters one draw
// of any stream, or one byte of AppendState, fails here.
var streamDigests = map[string][2]uint64{
	"astar/0x1/200000":         {0x846b9a5900c19443, 0x9d2b63200684b812},
	"astar/0x5eed/200000":      {0x6c6291ad7b5e7e6e, 0x30db725bdfb4b8c6},
	"bwaves/0x1/200000":        {0x39b3b146475b93c6, 0x2fe212846aaabfdc},
	"bwaves/0x5eed/200000":     {0x28350a12e0e6fcf8, 0xd09b5f84613b5c34},
	"bzip2/0x1/200000":         {0x5bbd322ed3b445be, 0x6b935bfeeeac8494},
	"bzip2/0x5eed/200000":      {0xe467be8d66e8d69c, 0x63f40dacc2795b12},
	"cactusADM/0x1/200000":     {0x69c071372fa602c6, 0x4c2a53757b4e7852},
	"cactusADM/0x5eed/200000":  {0x4ab2583c222be8b0, 0x67ada1ccbfd2099c},
	"calculix/0x1/200000":      {0xabc6f04d5a9984d5, 0x58f8f0b950eeb2d2},
	"calculix/0x5eed/200000":   {0x15339c3e713ff7, 0x904621bf9cbe3a6a},
	"dealII/0x1/200000":        {0x1f28183c2c434ac1, 0x49fc00aa6aa2deee},
	"dealII/0x5eed/200000":     {0x4f5b0f1700982509, 0x26de921886d463b},
	"gamess/0x1/200000":        {0xb03283ca4c0d0a58, 0x5383fae1be5abb43},
	"gamess/0x5eed/200000":     {0xf1bba7383330ef7e, 0x68bb5ffbe5006529},
	"gcc/0x1/200000":           {0xdae10bc1d1656dbf, 0x6e511ee58381ef08},
	"gcc/0x5eed/200000":        {0xa7a20dccaba31ba9, 0x583cbf84f4d78930},
	"gemsFDTD/0x1/200000":      {0x826a41aabf801089, 0x38fdedd123aaf994},
	"gemsFDTD/0x5eed/200000":   {0x26f67a2236823bb9, 0x371e8bce6188e358},
	"gobmk/0x1/200000":         {0x3ca86c46d78d2286, 0xde4d95f9f19b3c97},
	"gobmk/0x5eed/200000":      {0x21ce3f306ea8affa, 0xab88662b449459d7},
	"gromacs/0x1/200000":       {0x12a68b43707a26da, 0x7feafc5132c2bdb2},
	"gromacs/0x5eed/200000":    {0x61313f08bcdfcb74, 0x3b3f5988fd6ad3d5},
	"h264ref/0x1/200000":       {0x815132349aa3fb4e, 0xefdb51bed06c9c85},
	"h264ref/0x5eed/200000":    {0x73afd62bd604caba, 0x4130615b635ccb62},
	"hmmer/0x1/200000":         {0x4dfd7b61358ae89d, 0xb29bd8616c087840},
	"hmmer/0x5eed/200000":      {0xa6c92d7de3bf214e, 0x9445710faf075920},
	"lbm/0x1/200000":           {0x18bdbe220a46d088, 0x3410cfe68c557ca4},
	"lbm/0x5eed/200000":        {0xb202bab7b6f8ae86, 0x5e96df87d58602f5},
	"leslie3d/0x1/200000":      {0xd6fc5ac4447b5309, 0xca8295f9edb61bf1},
	"leslie3d/0x5eed/200000":   {0xe3f0342f157114da, 0x7e39e1796c49141c},
	"libquantum/0x1/200000":    {0x26ab28b2bc073298, 0x946ac5e21e1cbb12},
	"libquantum/0x5eed/200000": {0x8a4a10e25af7c054, 0xbefcbee64380de42},
	"mcf/0x1/200000":           {0xdf539e1b606967e3, 0x4f24002bb4cec9da},
	"mcf/0x5eed/200000":        {0xf5b5ff5d33d248d7, 0x5a9cc29520972a2d},
	"milc/0x1/200000":          {0xf9cf4b26a1176ef8, 0x665b603053bbff9e},
	"milc/0x5eed/200000":       {0x740026d483015087, 0x6f2a94c5d5635f67},
	"namd/0x1/200000":          {0x2d931f988656b1d6, 0xbbe936482deeaee},
	"namd/0x5eed/200000":       {0xa2b1db6f4a4d5da8, 0xe53afd6a6f6546be},
	"omnetpp/0x1/200000":       {0xf074411d7509af38, 0x848f1fedf5febb0b},
	"omnetpp/0x5eed/200000":    {0xa9db36262c6fc23f, 0xafd6c376e5bb78ce},
	"perlbench/0x1/200000":     {0x196e50fef6fb713b, 0xa1f273cc2545aba5},
	"perlbench/0x5eed/200000":  {0xc6c7ce8f1ea64860, 0x84997b5b075bc6c9},
	"povray/0x1/200000":        {0xe084d44944ad17fe, 0xfe0d221efe6596f8},
	"povray/0x5eed/200000":     {0x30244ef249e1cccb, 0xdec9dee25c4eeb6},
	"sjeng/0x1/200000":         {0x2bdad3bc3b44d5d6, 0xf1b86760203ae385},
	"sjeng/0x5eed/200000":      {0x5f88fefe2e8abbce, 0x412a7072b12455cf},
	"soplex/0x1/200000":        {0x442a7837d3c259c2, 0xb84d29b6098c8f35},
	"soplex/0x5eed/200000":     {0xc647e9093213a4b6, 0x51c8a8bb78f16f26},
	"sphinx/0x1/200000":        {0xe012f265eef95b95, 0x1444cac5f9b69db8},
	"sphinx/0x5eed/200000":     {0x35888e669dc39498, 0xa6f6bc6b1ed90bbf},
	"tonto/0x1/200000":         {0xda03bc45331277f6, 0xfe4f7b267e38eb65},
	"tonto/0x5eed/200000":      {0x534fb0ffe1bba705, 0x81366934087273cf},
	"wrf/0x1/200000":           {0x6d650866f09fda54, 0x9ebfac411f2d89b3},
	"wrf/0x5eed/200000":        {0x3d30244a0f750b19, 0xd3f024b5912f0315},
	"xalancbmk/0x1/200000":     {0xc79aee3463e48596, 0x65254891295153e2},
	"xalancbmk/0x5eed/200000":  {0x63ccf67e4050268, 0xadabdb6279a86547},
	"zeusmp/0x1/200000":        {0xea911d2fffba6a56, 0xbbf5c3efc20b9f5b},
	"zeusmp/0x5eed/200000":     {0x5811edc42a0d1452, 0xd31a3e8eb6e14b3a},
	"amg2013/0x1/200000":       {0x6260fd9d0ebe22bc, 0xe5e125ec1381db2e},
	"amg2013/0x5eed/200000":    {0xaf9f32b1e5ae8696, 0xe3b36266e372950},
	"comd/0x1/200000":          {0x6dea66cf98d313e4, 0xa4b0156e88f26b1e},
	"comd/0x5eed/200000":       {0xe63126ad08268aaf, 0xa12753e54c48157a},
	"lulesh/0x1/200000":        {0xe0086dd6cab18f17, 0xebbac87cf5e31fd2},
	"lulesh/0x5eed/200000":     {0xbcb7ec2051aa67b7, 0x862f88594d5a19ec},
	"nekbone/0x1/200000":       {0xa8f7b3350e0596cd, 0x5150d739710c3fd0},
	"nekbone/0x5eed/200000":    {0x21a53f1e094990e0, 0xd465748c9aa73f7c},
	"xsbench/0x1/200000":       {0xff592fe292d3c3d1, 0x20e582325aa16d97},
	"xsbench/0x5eed/200000":    {0x2a7c6c316c9ab9b7, 0x3f424f7853452d5e},
	"h264ref/0x7/1000000":      {0x1d00655809f213e5, 0x2022e5044456e278},
}

// TestGeneratorStreamDigest checks every pinned stream, and that a
// generator restored from the mid-stream checkpoint continues to the
// same digest.
func TestGeneratorStreamDigest(t *testing.T) {
	for _, c := range digestCases() {
		p, _ := ProfileByName(c.name)
		g := MustNewGenerator(p, c.seed)
		h := feed(g, c.ckpAt, fnvOffset)
		w := ckpt.NewWriter()
		g.AppendState(w)
		state := w.Bytes()
		var sh uint64 = fnvOffset
		for _, b := range state {
			sh = (sh ^ uint64(b)) * 1099511628211
		}
		full := feed(g, c.total-c.ckpAt, h)

		want, ok := streamDigests[c.key()]
		if !ok {
			t.Errorf("%s: no pinned digest (got stream %#x, state %#x)", c.key(), full, sh)
			continue
		}
		if full != want[0] {
			t.Errorf("%s: stream digest %#x, want %#x", c.key(), full, want[0])
		}
		if sh != want[1] {
			t.Errorf("%s: checkpoint digest %#x, want %#x", c.key(), sh, want[1])
		}

		r := MustNewGenerator(p, c.seed)
		rd := ckpt.NewReader(state)
		if err := r.RestoreState(rd); err != nil {
			t.Fatalf("%s: RestoreState: %v", c.key(), err)
		}
		if err := rd.Done(); err != nil {
			t.Fatalf("%s: trailing state: %v", c.key(), err)
		}
		if got := feed(r, c.total-c.ckpAt, h); got != want[0] {
			t.Errorf("%s: restored stream digest %#x, want %#x", c.key(), got, want[0])
		}
	}
}
