// Command capacitytriage reproduces the paper's Capacity Triage workload
// (§3): Kraken probes a service's per-server maximum throughput, and
// FBDetect watches for supply-side regressions (max throughput drops) and
// demand-side regressions (total peak requests rise) with the 5% relative
// thresholds of Table 1's CT rows.
//
// Because FBDetect treats increases as regressions, the supply series is
// monitored as "capacity pressure" (reference/value), which rises when
// capacity drops.
package main

import (
	"fmt"
	"log"
	"time"

	"fbdetect"
	"fbdetect/internal/kraken"
)

func main() {
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	const step = time.Hour

	ct, err := kraken.New(kraken.Config{
		Name: "adfinder",
		Step: step,
		Server: kraken.ServerModel{
			Capacity:    1200,
			BaseLatency: 8 * time.Millisecond,
		},
		PeakDemand:  4.2e6,
		DemandNoise: 0.01,
		Prober: kraken.Prober{
			LatencySLO:  80 * time.Millisecond,
			JitterSigma: 0.01,
		},
		Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Supply regression: a runtime upgrade costs 8% capacity midway
	// through what will be the scan's analysis window (day 8.25 of 10).
	ct.ScheduleCapacityEvent(kraken.CapacityEvent{
		At: start.Add(8*24*time.Hour + 6*time.Hour), Factor: 0.92,
	})
	// Demand regression: a client bug inflates retry traffic shortly
	// after.
	ct.ScheduleDemandEvent(kraken.DemandEvent{
		At: start.Add(8*24*time.Hour + 10*time.Hour), Factor: 1.12,
	})

	rawDB := fbdetect.NewDB(step)
	end := start.Add(10 * 24 * time.Hour)
	fmt.Println("probing max throughput hourly for 10 days (Kraken)...")
	if err := ct.Run(rawDB, start, end); err != nil {
		log.Fatal(err)
	}

	// Re-derive monitorable series: capacity pressure (rises on supply
	// loss) and peak demand (rises on demand regressions).
	monDB := fbdetect.NewDB(step)
	supply, err := rawDB.Full(fbdetect.ID("adfinder", "", "max_throughput"))
	if err != nil {
		log.Fatal(err)
	}
	reference := supply.Values[0]
	for i, v := range supply.Values {
		t := supply.TimeAt(i)
		pressure := reference / v
		if err := monDB.Append(fbdetect.ID("adfinder", "", "capacity_pressure"), t, pressure); err != nil {
			log.Fatal(err)
		}
	}
	demand, err := rawDB.Full(fbdetect.ID("adfinder", "", "peak_demand"))
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range demand.Values {
		if err := monDB.Append(fbdetect.ID("adfinder", "", "peak_demand"), demand.TimeAt(i), v); err != nil {
			log.Fatal(err)
		}
	}

	cfg := fbdetect.CTSupplyShort() // 5% relative, 7d/1d/1d windows
	det, err := fbdetect.NewDetector(cfg, monDB, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := det.Scan("adfinder", end)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nchange points: %d, reported: %d\n",
		res.Funnel.ChangePoints, len(res.Reported))
	for _, r := range res.Reported {
		kind := "demand-side"
		if r.Name == "capacity_pressure" {
			kind = "supply-side"
		}
		fmt.Printf("  [%s] %s\n", kind, r)
	}
	if len(res.Reported) == 0 {
		fmt.Println("(none reported)")
	}
}
