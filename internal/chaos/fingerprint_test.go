package chaos

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// scheduleFingerprints pins every seeded schedule the tree runs: the
// generated programs Generate(seed, GenConfig{}) for seeds 1-20
// ("generated/N") and each corpus scenario at seeds 1-3 ("name/N"). A row
// is the event count and an FNV-64a hash over every history event's
// String(), the network counters, the submission counters and the fault
// counters. A change that moves a seeded schedule must update this table
// and say which rows moved.
var scheduleFingerprints = map[string]struct {
	events int
	hash   uint64
}{
	"generated/1":  {121, 0x7f6973d566d58520},
	"generated/2":  {117, 0x91aa626423a17cc4},
	"generated/3":  {77, 0x5bec601b3277d8ae},
	"generated/4":  {122, 0x89954ec24ddac815},
	"generated/5":  {109, 0xd5417ce08e4c1f16},
	"generated/6":  {100, 0xb00aad68e1afb82c},
	"generated/7":  {158, 0x140159009d0a41c0},
	"generated/8":  {111, 0xb046ba2d16bc61ca},
	"generated/9":  {104, 0xf88f7af5fa65a753},
	"generated/10": {134, 0x111f34b519ad93fb},
	"generated/11": {92, 0x6098e94f6f76d83d},
	"generated/12": {94, 0x35191077fad334a3},
	"generated/13": {143, 0x6de85185a16066ac},
	"generated/14": {132, 0x2f2ed97b7d02f59b},
	"generated/15": {93, 0xf9294179e1900ad6},
	"generated/16": {140, 0x1ea66a5734638fcb},
	"generated/17": {121, 0xb4c33d78f181aa0a},
	"generated/18": {93, 0x63e6ee2371b799c8},
	"generated/19": {159, 0xd94f5aadf440fdd7},
	"generated/20": {86, 0xbcb9bad4b2ed72b9},
	"churn/1":      {138, 0xcf887c4bec99a54a},
	"churn/2":      {141, 0xd5d75a074bc58165},
	"churn/3":      {144, 0xec68b905dd5f8d9a},
	"conforming/1": {66, 0x1642fc5f0ec8cedd},
	"conforming/2": {66, 0x51c32dcebe142f1a},
	"conforming/3": {66, 0xeb30efd73f1f8c51},
	"crash/1":      {25, 0x31c48a37f35d5010},
	"crash/2":      {25, 0x6f21c44979b70bd1},
	"crash/3":      {25, 0x1a36278ee90e6e57},
	"figure6/1":    {49, 0xf939f16b8d5b1a81},
	"figure6/2":    {49, 0x36fa036c6394437c},
	"figure6/3":    {49, 0x45aacb0f5b41ecdf},
	"partition/1":  {36, 0x4daa17a713184f56},
	"partition/2":  {36, 0x3fcf2ca3bc41eb07},
	"partition/3":  {36, 0x8cde07da66a9982d},
}

// fingerprint hashes one execution of p.
func fingerprint(p Program) (int, uint64, string) {
	events, res := Trace(p)
	h := fnv.New64a()
	for _, e := range events {
		fmt.Fprintln(h, e.String())
	}
	// The counters are named one by one, so the hash does not depend on
	// which struct carries them.
	s, f := res.Group, res.Faults
	counters := fmt.Sprintf("net=%+v submitted=%d rejected=%d backlogged=%d corruptions=%d seq_wraps=%d ring_regressions=%d obligation_poisons=%d log_flips=%d perturbations=%d",
		res.Net, s.Submitted, s.Rejected, s.Backlogged,
		f.Corruptions, f.SeqWraps, f.RingRegressions, f.ObligationPoisons, f.LogFlips, f.Perturbations)
	fmt.Fprintln(h, counters)
	return len(events), h.Sum64(), counters
}

// TestScheduleFingerprints checks every row of the table: the generated
// programs in subtest "generated", the corpus scenarios in "corpus".
func TestScheduleFingerprints(t *testing.T) {
	programs := make(map[string]Program)
	t.Run("generated", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			key := fmt.Sprintf("generated/%d", seed)
			programs[key] = Generate(seed, GenConfig{})
			checkFingerprint(t, key, programs[key])
		}
	})
	t.Run("corpus", func(t *testing.T) {
		for _, name := range corpusNames(t) {
			p := mustScenario(t, name)
			for seed := int64(1); seed <= 3; seed++ {
				p.Seed = seed
				key := fmt.Sprintf("%s/%d", name, seed)
				programs[key] = p
				checkFingerprint(t, key, p)
			}
		}
	})
	if len(programs) != len(scheduleFingerprints) {
		t.Errorf("%d schedules, %d fingerprints", len(programs), len(scheduleFingerprints))
	}
}

// checkFingerprint compares p's fingerprint with the table's row key.
func checkFingerprint(t *testing.T, key string, p Program) {
	t.Helper()
	n, sum, counters := fingerprint(p)
	want, ok := scheduleFingerprints[key]
	if !ok || want.events != n || want.hash != sum {
		t.Errorf("%s: %d events, hash %#x, want %d events, hash %#x (%s)",
			key, n, sum, want.events, want.hash, counters)
	}
}
