package main

import "repro/internal/obs"

// obsReading is the program's own obs instruments summed over a set of
// processes, at one instant or as the difference of two: the counts at
// the same boundaries the spans time. Histograms keep only what the
// benchmark reads, their bucket counts.
type obsReading struct {
	counters map[string]float64
	buckets  map[string][]float64
}

// readObs totals the given scopes (obs.Cluster does the summing).
func readObs(scopes ...*obs.Metrics) obsReading {
	return readingOf(obs.Cluster(scopes...).Total)
}

func readingOf(total snapshot) obsReading {
	r := obsReading{counters: map[string]float64{}, buckets: map[string][]float64{}}
	for k, v := range total.Counters {
		r.counters[k] = float64(v)
	}
	for k, h := range total.Histograms {
		bs := make([]float64, len(h.Buckets))
		for i, b := range h.Buckets {
			bs[i] = float64(b)
		}
		r.buckets[k] = bs
	}
	return r
}

// plus returns d + sign*o; the zero obsReading is the identity.
func (d obsReading) plus(o obsReading, sign float64) obsReading {
	out := obsReading{counters: map[string]float64{}, buckets: map[string][]float64{}}
	for k, v := range d.counters {
		out.counters[k] = v
	}
	for k, bs := range d.buckets {
		out.buckets[k] = append([]float64(nil), bs...)
	}
	for k, v := range o.counters {
		out.counters[k] += sign * v
	}
	for k, bs := range o.buckets {
		if out.buckets[k] == nil {
			out.buckets[k] = make([]float64, len(bs))
		}
		for i, b := range bs {
			out.buckets[k][i] += sign * b
		}
	}
	return out
}

func (d obsReading) add(o obsReading) obsReading { return d.plus(o, 1) }
func (d obsReading) sub(o obsReading) obsReading { return d.plus(o, -1) }

func (d obsReading) c(c obs.Counter) float64 { return d.counters[obs.CounterName(c)] }

// configs is the number of configuration changes delivered, of both kinds.
func (d obsReading) configs() float64 {
	return d.c(obs.CConfigsRegular) + d.c(obs.CConfigsTransitional)
}

// gathers is the number of entries into the membership gather phase.
func (d obsReading) gathers() float64 {
	return d.c(obs.CGatherTokenLoss) + d.c(obs.CGatherForeign) + d.c(obs.CGatherJoin) +
		d.c(obs.CGatherRecoveryTimeout) + d.c(obs.CGatherStart)
}

// histP50Ms estimates the median of a microsecond histogram, in ms, by
// interpolating inside its power-of-two bucket (bucket i holds values
// below 2^i).
func (d obsReading) histP50Ms(h obs.Hist) float64 {
	bs := d.buckets[obs.HistName(h)]
	total := 0.0
	for _, b := range bs {
		total += b
	}
	if total == 0 {
		return 0
	}
	target, cum := total/2, 0.0
	for i, b := range bs {
		if b > 0 && cum+b >= target {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = float64(uint64(1)<<uint(i-1)), float64(uint64(1)<<uint(i))
			}
			return (lo + (hi-lo)*(target-cum)/b) / 1000
		}
		cum += b
	}
	return 0
}

// layerCounts fills the per-layer metrics that are ratios of the
// program's own counters over msgs messages delivered everywhere in a
// window of windowUs microseconds on an n-process ring.
func layerCounts(r *result, d obsReading, msgs float64, windowUs float64, n int) {
	rotations := d.c(obs.CTokenRotations) / float64(n)
	r.set("totem.msgs_per_batch", ratio(d.c(obs.CMsgsSequenced), d.c(obs.CBatchesSent)))
	r.set("totem.rotation_us", ratio(windowUs, rotations))
	r.set("totem.rotations_per_msg", ratio(rotations, msgs))
	r.set("totem.retrans_served_per_msg", ratio(d.c(obs.CRetransServed), msgs))
	r.set("totem.budget_shrinks", d.c(obs.CBudgetShrinks))
	r.set("transport.packets_per_msg", ratio(d.c(obs.CWirePacketsOut), msgs))
	r.set("transport.bytes_per_msg", ratio(d.c(obs.CWireBytesOut), msgs))
	r.set("transport.drops", d.c(obs.CWireDrops))
	r.set("wire.decode_errors", d.c(obs.CWireDecodeErrors))
	r.set("node.backlog_retry_share", ratio(d.c(obs.CSubmitBacklog), d.c(obs.CSubmits)+d.c(obs.CSubmitBacklog)))
	r.set("netsim.packets_per_msg", ratio(d.c(obs.CNetDelivered), msgs))
}

// recoveryHists fills the recovery-step medians from the obs histograms.
func recoveryHists(r *result, d obsReading) {
	r.set("evs.recovery_total_ms_p50", d.histP50Ms(obs.HRecoveryTotalUs))
	r.set("evs.recovery_exchange_ms_p50", d.histP50Ms(obs.HRecoveryExchangeUs))
	r.set("evs.recovery_flush_ms_p50", d.histP50Ms(obs.HRecoveryFlushUs))
}
