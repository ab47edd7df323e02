package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("p01=127.0.0.1:7101, p02=127.0.0.1:7102", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["p01"] != "127.0.0.1:7101" || got["p02"] != "127.0.0.1:7102" {
		t.Fatalf("parsed %v", got)
	}

	dir := t.TempDir()
	file := filepath.Join(dir, "peers")
	os.WriteFile(file, []byte("# ring\np01=127.0.0.1:7101\n\np03 = 127.0.0.1:7103\n"), 0o644)
	got, err = parsePeers("", file)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["p03"] != "127.0.0.1:7103" {
		t.Fatalf("parsed %v", got)
	}

	if _, err := parsePeers("justanaddr", ""); err == nil {
		t.Fatal("malformed entry accepted")
	}
	if _, err := parsePeers("", ""); err == nil {
		t.Fatal("empty peer list accepted")
	}
}

// TestEvsdLoopbackSmoke drives the daemon entrypoint the way the CI
// smoke does: a 3-process ring on loopback UDP, time-boxed with -run,
// one process generating load, then -check over the merged traces.
func TestEvsdLoopbackSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second daemon run")
	}
	dir := t.TempDir()
	ids := []string{"p01", "p02", "p03"}
	var peers []string
	for _, id := range ids {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, id+"="+conn.LocalAddr().String())
		conn.Close()
	}
	peerList := strings.Join(peers, ",")

	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	var wg sync.WaitGroup
	codes := make([]int, len(ids))
	var traces []string
	for i, id := range ids {
		trace := filepath.Join(dir, id+".jsonl")
		traces = append(traces, trace)
		args := []string{
			"-id", id, "-peers", peerList, "-trace", trace, "-run", "2s",
		}
		if i == 0 {
			args = append(args, "-load", "20", "-payload", "32")
		}
		wg.Add(1)
		go func(i int, args []string) {
			defer wg.Done()
			codes[i] = run(args, devnull, os.Stderr)
		}(i, args)
	}
	wg.Wait()
	for i, code := range codes {
		if code != 0 {
			t.Fatalf("%s exited %d", ids[i], code)
		}
	}

	out, err := os.CreateTemp(dir, "check-out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if code := run([]string{"-check", strings.Join(traces, ",")}, out, os.Stderr); code != 0 {
		data, _ := os.ReadFile(out.Name())
		t.Fatalf("check exited %d:\n%s", code, data)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "0 violations") {
		t.Fatalf("check output: %s", data)
	}
	// The ring actually carried the load: some events were traced.
	if strings.Contains(string(data), " 0 events") {
		t.Fatalf("empty merged trace: %s", data)
	}
}

func TestCheckRejectsViolationFreeGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	os.WriteFile(bad, []byte("not json\n"), 0o644)
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer devnull.Close()
	if code := run([]string{"-check", bad}, devnull, devnull); code == 0 {
		t.Fatal("garbage trace certified")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer devnull.Close()
	cases := [][]string{
		{"-peers", "p01=1.2.3.4:1"},                        // no -id
		{"-id", "p01", "-peers", "p02=1.2.3.4:1"},          // self missing
		{"-id", "p01"},                                     // no peers
		{"-id", "p01", "-peers", "p01=x", "-service", "?"}, // bad service
	}
	for _, args := range cases {
		if code := run(args, devnull, devnull); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}
