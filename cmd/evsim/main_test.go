package main

import (
	"fmt"
	"hash/fnv"
	"testing"

	evs "repro"
)

// Every scenario must run to completion with a clean specification check.
func TestScenarios(t *testing.T) {
	for _, sc := range []string{"figure6", "partition", "crash", "churn"} {
		sc := sc
		t.Run(sc, func(t *testing.T) {
			if err := run(sc, 1, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnknownScenario(t *testing.T) {
	if err := run("nope", 1, false); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

// historyFingerprints pins each scenario's schedule: the event count and
// an FNV-64a hash over every History() event's String(), per seed. A
// change that moves a seeded schedule must update this table and say
// which scenarios and seeds moved.
var historyFingerprints = map[string]struct {
	events int
	hash   uint64
}{
	"figure6/1":   {39, 0x9fff0d4f826b9fa6},
	"figure6/2":   {39, 0xfc11fa01dbccfe8c},
	"figure6/3":   {39, 0x916bcf7eeb84f796},
	"partition/1": {36, 0xcae35c5b631da8a2},
	"partition/2": {36, 0x5ac0812214a98a52},
	"partition/3": {36, 0xc7ddb00e850ed861},
	"crash/1":     {25, 0xde49947d0e6659ee},
	"crash/2":     {25, 0xb8aab08b81ad3de6},
	"crash/3":     {25, 0x4a81de5ed7486a4},
	"churn/1":     {138, 0x2fc52fda7b1bd10f},
	"churn/2":     {141, 0x33ea383ce1f85868},
	"churn/3":     {144, 0xa91b27e1d72b4697},
}

func TestHistoryFingerprints(t *testing.T) {
	scenarios := map[string]func(int64) *evs.Group{
		"figure6": figure6, "partition": partition, "crash": crash, "churn": churn,
	}
	for _, name := range []string{"figure6", "partition", "crash", "churn"} {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/%d", name, seed)
			events := scenarios[name](seed).History()
			h := fnv.New64a()
			for _, e := range events {
				fmt.Fprintln(h, e.String())
			}
			want, ok := historyFingerprints[key]
			if !ok || want.events != len(events) || want.hash != h.Sum64() {
				t.Errorf("%s: %d events, hash %#x, want %d events, hash %#x",
					key, len(events), h.Sum64(), want.events, want.hash)
			}
		}
	}
}
