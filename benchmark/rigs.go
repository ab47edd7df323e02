package main

import (
	"runtime"
	"time"

	"repro/internal/groups"
	"repro/internal/model"
	"repro/internal/stable"
	"repro/internal/totem"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// The isolated rigs split what the decorators cannot see inside: each
// drives one module's public functions alone, single-threaded, for a
// fixed time, with messages of the workload's shape. They are per-layer
// only; no end-to-end metric depends on them.

const rigBatch = 64 // messages per DataBatch and per PutLogBatch

// rigFor is how long each rig runs: a second at the official run length.
func rigFor(seconds float64) time.Duration {
	d := time.Duration(seconds * float64(time.Second) / 10)
	if d > time.Second {
		d = time.Second
	}
	return d
}

// timeLoop calls fn until d has passed (checking the clock every 64
// calls) and returns calls made, elapsed ns and mallocs.
func timeLoop(d time.Duration, fn func()) (calls int, ns float64, mallocs float64) {
	fn() // first call pays for arenas and interning tables
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for {
		for k := 0; k < 64; k++ {
			fn()
		}
		calls += 64
		if time.Since(t0) >= d {
			break
		}
	}
	ns = float64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	return calls, ns, float64(m1.Mallocs - m0.Mallocs)
}

// rigBatchOf builds a 64-message batch as a loaded 4-process ring
// produces it: dense stamps over the ring's universe, consecutive
// sequence numbers from seq.
func rigBatchOf(seed int64, size int, seq uint64) wire.DataBatch {
	ids := procNames(ringProcs)
	u := vclock.NewUniverse(ids)
	ring := model.RegularID(3, ids[0])
	pay := newPayloads(seed, size)
	msgs := make([]wire.Data, rigBatch)
	for i := range msgs {
		d := u.NewDense()
		for k := range d {
			d[k] = int32(1000 + i + k)
		}
		msgs[i] = wire.Data{
			ID:      model.MessageID{Sender: ids[i%ringProcs], SenderSeq: seq + uint64(i)},
			Ring:    ring,
			Seq:     seq + uint64(i),
			Service: model.Agreed,
			Payload: pay.next(int64(i)),
			VC:      vclock.Stamp{U: u, D: d},
		}
	}
	return wire.DataBatch{Ring: ring, Msgs: msgs}
}

// runRigs fills the isolated per-layer metrics.
func runRigs(r *result, seed int64, size int, seconds float64) {
	d := rigFor(seconds)
	rigTotem(r, seed, size, d)
	rigStable(r, seed, size, d)
	rigWire(r, seed, size, d)
	rigGroups(r, seed, size, d)
	r.note("isolated rigs: %s each, %d B payloads, %d-message batches, single-threaded", d, size, rigBatch)
}

// rigTotem is four totem.Rings handing OnToken and OnDataBatch results
// to each other and nothing else: no node, store, codec or transport.
// The metric is ns per message delivered at all four.
func rigTotem(r *result, seed int64, size int, d time.Duration) {
	ids := procNames(ringProcs)
	cfg := model.Configuration{ID: model.RegularID(1, ids[0]), Members: model.NewProcessSet(ids...)}
	opts := totem.DefaultOptions()
	rings := make([]*totem.Ring, ringProcs)
	for i, id := range ids {
		rings[i] = totem.New(id, cfg, opts)
	}
	pay := newPayloads(seed, size)
	tok := rings[0].InitialToken()
	seqs := make([]uint64, ringProcs)
	var delivered, visit int
	_, ns, _ := timeLoop(d, func() {
		i := visit % ringProcs
		visit++
		ring := rings[i]
		for ring.PendingCount() < opts.AdaptiveMax {
			seqs[i]++
			ring.Submit(totem.Pending{ID: model.MessageID{Sender: ids[i], SenderSeq: seqs[i]}, Service: model.Agreed, Payload: pay.body})
		}
		res := ring.OnToken(tok)
		if !res.Accepted {
			return
		}
		delivered += len(res.Deliveries)
		for j, other := range rings {
			if j != i {
				dels, _ := other.OnDataBatch(res.Broadcasts)
				delivered += len(dels)
			}
		}
		tok = res.Forward
	})
	r.set("totem.visit_ns_per_msg", ratio(ns, float64(delivered)/ringProcs))
}

// rigStable is PutLogBatch plus the per-visit SetScalars that trims the
// log behind it, as the node calls them.
func rigStable(r *result, seed int64, size int, d time.Duration) {
	var store stable.Store
	msgs := rigBatchOf(seed, size, 1).Msgs
	next := uint64(1)
	calls, ns, mallocs := timeLoop(d, func() {
		for i := range msgs {
			msgs[i].Seq = next
			msgs[i].ID.SenderSeq = next
			next++
		}
		store.PutLogBatch(msgs)
		if next > 8*rigBatch {
			store.SetScalars(stable.Record{TrimmedUpTo: next - 8*rigBatch})
		}
	})
	n := float64(calls * rigBatch)
	r.set("stable.put_ns_per_msg", ratio(ns, n))
	r.set("stable.put_allocs_per_msg", ratio(mallocs, n))
}

// rigWire encodes and decodes one 64-message DataBatch the way the
// transports do: append into a reused buffer, one reused Decoder.
func rigWire(r *result, seed int64, size int, d time.Duration) {
	batch := rigBatchOf(seed, size, 4242)
	buf := make([]byte, 0, rigBatch*(size+64))
	var err error
	calls, ns, _ := timeLoop(d/2, func() {
		buf, err = wire.AppendMessage(buf[:0], batch)
	})
	if err != nil {
		r.Violations++
		r.note("violation: wire rig: encode: %v", err)
		return
	}
	r.set("wire.encode_ns_per_msg", ratio(ns, float64(calls*rigBatch)))
	frame := append([]byte(nil), buf...)
	dec := wire.NewDecoder()
	calls, ns, _ = timeLoop(d/2, func() {
		_, err = dec.Decode(frame)
	})
	if err != nil {
		r.Violations++
		r.note("violation: wire rig: decode: %v", err)
		return
	}
	r.set("wire.decode_ns_per_msg", ratio(ns, float64(calls*rigBatch)))
}

// rigGroups is the lightweight-group envelope codec on a data message.
// No workload runs groups on a wall-clock runtime until the roadmap's E3
// wires it there; the rig records the cost that wiring will add.
func rigGroups(r *result, seed int64, size int, d time.Duration) {
	env := groups.Envelope{Kind: groups.KindClientData, Client: 17, GroupID: 4242, Data: newPayloads(seed, size).body}
	var enc []byte
	var err error
	calls, ns, _ := timeLoop(d/2, func() {
		enc, err = groups.Encode(env)
	})
	if err != nil {
		r.Violations++
		r.note("violation: groups rig: encode: %v", err)
		return
	}
	r.set("groups.encode_ns", ratio(ns, float64(calls)))
	calls, ns, _ = timeLoop(d/2, func() {
		_, err = groups.Decode(enc)
	})
	if err != nil {
		r.Violations++
		r.note("violation: groups rig: decode: %v", err)
		return
	}
	r.set("groups.decode_ns", ratio(ns, float64(calls)))
}
