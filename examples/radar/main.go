// Radar: the paper's third motivating application. Sensors with different
// view qualities broadcast track readings; displays fuse them and show the
// best available picture. When a partition cuts the display off from the
// best sensor, the display degrades gracefully to the best *connected*
// sensor — "it is better to display lower quality information from the
// connected sensors than to do nothing" — and recovers the full picture on
// remerge.
//
// Run with: go run ./examples/radar
package main

import (
	"fmt"
	"os"
	"time"

	evs "repro"
	"repro/internal/apps/radar"
	"repro/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	ids := []evs.ProcessID{"display", "sense-a", "sense-b"}
	g := evs.NewGroup(evs.Options{Processes: ids, Seed: 13})
	sensors := evs.NewProcessSet("sense-a", "sense-b")
	disp := radar.NewDisplay("display", sensors)
	fine := radar.NewSensor("sense-a", 0.95) // the sensor with the best view
	coarse := radar.NewSensor("sense-b", 0.40)

	fed := 0
	syncDisplay := func() {
		confs := g.ConfigChanges("display")
		dels := g.Deliveries("display")
		type ev struct {
			conf    *evs.Configuration
			payload []byte
		}
		var evts []ev
		ci, di := 0, 0
		for _, e := range g.History() {
			if e.Proc != "display" {
				continue
			}
			switch e.Type {
			case model.EventDeliverConf:
				if ci < len(confs) && confs[ci].Config.ID == e.Config {
					c := confs[ci].Config
					evts = append(evts, ev{conf: &c})
					ci++
				}
			case model.EventDeliver:
				if di < len(dels) && dels[di].Msg == e.Msg {
					evts = append(evts, ev{payload: dels[di].Payload})
					di++
				}
			}
		}
		for _, e := range evts[fed:] {
			if e.conf != nil {
				disp.OnConfig(*e.conf)
			} else {
				disp.OnDeliver(e.payload)
			}
		}
		fed = len(evts)
	}

	report := func(sensor evs.ProcessID, r radar.Reading) {
		b, err := radar.Encode(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: reading dropped: %v\n", sensor, err)
			return
		}
		g.Send(g.Now(), sensor, b, evs.Agreed)
	}

	show := func(label string) {
		syncDisplay()
		best, ok := disp.Best("bogey-1")
		if !ok {
			fmt.Printf("%8.0fms  %-22s picture: BLANK\n", float64(g.Now().Microseconds())/1000, label)
			return
		}
		fmt.Printf("%8.0fms  %-22s picture: (%.1f, %.1f) from %s, quality %.2f\n",
			float64(g.Now().Microseconds())/1000, label, best.X, best.Y, best.Sensor, best.Quality)
	}

	// Both sensors track bogey-1; the display shows the fine sensor.
	g.At(200*time.Millisecond, func() {
		report("sense-a", fine.Observe("bogey-1", 10.0, 20.0))
		report("sense-b", coarse.Observe("bogey-1", 10.4, 20.6))
	})
	g.At(400*time.Millisecond, func() { show("connected") })

	// The fine sensor's link fails; the coarse sensor keeps reporting.
	g.Partition(450*time.Millisecond, []evs.ProcessID{"display", "sense-b"}, []evs.ProcessID{"sense-a"})
	g.At(700*time.Millisecond, func() {
		report("sense-b", coarse.Observe("bogey-1", 11.1, 21.2))
	})
	g.At(900*time.Millisecond, func() { show("partitioned (degraded)") })

	// Link restored: next readings from the fine sensor win again.
	g.Merge(1000 * time.Millisecond)
	g.At(1400*time.Millisecond, func() {
		report("sense-a", fine.Observe("bogey-1", 12.0, 22.0))
	})
	g.At(1700*time.Millisecond, func() { show("remerged") })
	g.Run(2 * time.Second)

	if disp.Blanks() != 0 {
		return fmt.Errorf("display blanked %d times; partitioned operation should prevent that", disp.Blanks())
	}
	if vs := g.Check(true); len(vs) != 0 {
		return fmt.Errorf("specification violations: %v", vs)
	}
	fmt.Println("\nno blank pictures during the partition; specification check clean.")
	return nil
}
