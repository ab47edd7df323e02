package chaos

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// scheduleFingerprints pins the schedule of Generate(seed, GenConfig{})
// for seeds 1-20: the event count and an FNV-64a hash over every history
// event's String(), the network counters, the submission counters and the
// fault counters. A change that moves a seeded schedule must update this
// table and say which seeds moved.
var scheduleFingerprints = map[int64]struct {
	events int
	hash   uint64
}{
	1:  {121, 0x7f6973d566d58520},
	2:  {117, 0x91aa626423a17cc4},
	3:  {77, 0x5bec601b3277d8ae},
	4:  {122, 0x89954ec24ddac815},
	5:  {109, 0xd5417ce08e4c1f16},
	6:  {100, 0xb00aad68e1afb82c},
	7:  {158, 0x140159009d0a41c0},
	8:  {111, 0xb046ba2d16bc61ca},
	9:  {104, 0xf88f7af5fa65a753},
	10: {134, 0x111f34b519ad93fb},
	11: {92, 0x6098e94f6f76d83d},
	12: {94, 0x35191077fad334a3},
	13: {143, 0x6de85185a16066ac},
	14: {132, 0x2f2ed97b7d02f59b},
	15: {93, 0xf9294179e1900ad6},
	16: {140, 0x1ea66a5734638fcb},
	17: {121, 0xb4c33d78f181aa0a},
	18: {93, 0x63e6ee2371b799c8},
	19: {159, 0xd94f5aadf440fdd7},
	20: {86, 0xbcb9bad4b2ed72b9},
}

// fingerprint hashes one execution of p.
func fingerprint(p Program) (int, uint64, string) {
	events, res := runHistory(p)
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

func TestScheduleFingerprints(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n, sum, counters := fingerprint(Generate(seed, GenConfig{}))
		want, ok := scheduleFingerprints[seed]
		if !ok || want.events != n || want.hash != sum {
			t.Errorf("seed %d: %d events, hash %#x, want %d events, hash %#x (%s)",
				seed, n, sum, want.events, want.hash, counters)
		}
	}
}
