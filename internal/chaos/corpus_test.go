package chaos

import (
	"bytes"
	"io/fs"
	"strings"
	"testing"
)

// corpusNames lists the scenarios in testdata/, in file-name order.
func corpusNames(t *testing.T) []string {
	t.Helper()
	files, err := fs.Glob(corpus, "testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = strings.TrimSuffix(strings.TrimPrefix(f, "testdata/"), ".json")
	}
	return names
}

func mustScenario(t *testing.T, name string) Program {
	t.Helper()
	p, err := Scenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCorpus: every corpus scenario conforms and converges at seeds 1-3
// and at its own seed, the one a saved reproducer fails at.
func TestCorpus(t *testing.T) {
	for _, name := range corpusNames(t) {
		p := mustScenario(t, name)
		seeds := []int64{1, 2, 3}
		if p.Seed > 3 {
			seeds = append(seeds, p.Seed)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				p.Seed = seed
				if res := Run(p); res.Failed() {
					t.Errorf("seed %d: %s\n%v", seed, res, res.Violations)
				}
			}
		})
	}
}

// TestCorpusFilesAreCanonical: each corpus file is exactly what
// EncodeJSON writes for it, so evschaos -save output and the corpus share
// one format.
func TestCorpusFilesAreCanonical(t *testing.T) {
	for _, name := range corpusNames(t) {
		b, err := corpus.ReadFile("testdata/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		enc, err := mustScenario(t, name).EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, enc) {
			t.Errorf("%s.json is not in EncodeJSON's format; re-encoded:\n%s", name, enc)
		}
	}
}

func TestUnknownScenario(t *testing.T) {
	if _, err := Scenario("nope"); err == nil {
		t.Fatal("an unknown scenario must be an error")
	}
}

func TestDecodeRejectsUnknownField(t *testing.T) {
	_, err := DecodeJSON([]byte(`{"seed": 1, "procs": 3, "evnets": []}`))
	if err == nil || !strings.Contains(err.Error(), "evnets") {
		t.Fatalf("a misspelt field decoded: %v", err)
	}
}

func TestDecodeRejectsUnknownOp(t *testing.T) {
	_, err := DecodeJSON([]byte(`{"seed": 1, "events": [{"at": 0, "op": "sned", "proc": "p01"}]}`))
	if err == nil || !strings.Contains(err.Error(), "sned") {
		t.Fatalf("an unknown op decoded: %v", err)
	}
}
