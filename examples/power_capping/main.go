// Power capping: the §2.3 extension. Instead of "save energy within an SLO",
// run "stay under a watt budget while losing as little performance as
// possible" — the rack-level problem when a branch circuit or cooling zone
// is oversubscribed. Sweeps the cap from generous to harsh and reports what
// each budget costs in throughput.
package main

import (
	"fmt"
	"log"

	"coscale"
)

func main() {
	const workload = "MID1"

	base, err := coscale.Run(coscale.Config{Workload: workload, Policy: coscale.PolicyBaseline})
	if err != nil {
		log.Fatal(err)
	}
	basePower := base.Energy.Total() / base.WallTime
	fmt.Printf("%s uncapped: %.0f W average, %.3f s\n\n", workload, basePower, base.WallTime)
	fmt.Printf("%-12s %12s %12s %12s\n", "cap", "avg power", "slowdown", "within cap")

	for _, frac := range []float64{0.95, 0.85, 0.75, 0.65} {
		capW := basePower * frac
		res, err := coscale.Run(coscale.Config{
			Workload:      workload,
			Policy:        coscale.PolicyPowerCap,
			PowerCapWatts: capW,
		})
		if err != nil {
			log.Fatal(err)
		}
		avg := res.Energy.Total() / res.WallTime
		fmt.Printf("%4.0f%% (%3.0fW) %10.0f W %11.1f%% %12v\n",
			frac*100, capW, avg, (res.WallTime/base.WallTime-1)*100, avg <= capW*1.02)
	}
	fmt.Println("\nThe controller sheds the cheapest watts first (the CoScale walk itself,")
	fmt.Println("stopped at the first point under the cap), so harsh caps cost far less")
	fmt.Println("performance than naive uniform frequency reduction would.")
}
