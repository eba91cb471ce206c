package gossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// BenchmarkIndexChurn measures announce + lookup throughput while the
// membership churns: every iteration refreshes one node's holdings and
// resolves one object, and every 64th iteration crashes or restarts a
// node and runs a gossip round. How many rounds the same deployment
// takes to reconverge after an owner crash is a function of the seed,
// so TestChurnOwnerCrashConvergence asserts it.
func BenchmarkIndexChurn(b *testing.B) {
	d, ids, objs := churnDirectory(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := ids[i%len(ids)]
		d.SetHoldings(n, []string{objs[i%len(objs)], objs[(i*7)%len(objs)]})
		d.Lookup(n, objs[(i*13)%len(objs)])
		if i%64 == 63 {
			victim := ids[(i/64)%len(ids)]
			d.MarkDown(victim)
			d.Tick()
			d.MarkUp(victim)
		}
	}
}

// BenchmarkGossipScale charts the directory's cost curve from 1k nodes
// to the paper's 10k-node deployment, the membership range the workload
// engine drives, on the path a deployment takes: its Links is cutLinks,
// the cluster's reachability model, once with nothing cut and once with
// a seeded 10% minority cut open. The catalog stays fixed (an
// image-popularity catalog does not grow with the cluster) while
// holdings density per node is constant, so replication fan-in grows
// with the membership. ns/op is one full gossip round — advertise +
// fanout-k exchange + prune across every live node — and
// converge-rounds is the owner-crash convergence bound measured at that
// scale, with nothing cut, before the timer starts.
//
// The linearity bar is asserted here, for each Links state: when
// nodes=1000 and nodes=10000 both ran, a round's cost per node at 10k
// must stay within scaleCostBar of its cost per node at 1k or the
// benchmark fails. A filtered run that skips either side is not judged.
//
//	go test -run '^$' -bench BenchmarkGossipScale -benchtime 1x ./internal/gossip/
func BenchmarkGossipScale(b *testing.B) {
	const (
		objects      = 256
		scaleCostBar = 3 // x
	)
	for _, cutOpen := range []bool{false, true} {
		nsPerNode := make(map[int]float64) // nodes → per-node round cost of the sub-benchmark's last run
		for _, nodes := range []int{1000, 4000, 10000} {
			b.Run(fmt.Sprintf("cut=%v/nodes=%d", cutOpen, nodes), func(b *testing.B) {
				links := &cutLinks{}
				ids := nodeIDs(nodes)
				objs := make([]string, objects)
				for i := range objs {
					objs[i] = fmt.Sprintf("img%03d", i)
				}
				build := func(ttl int64) *Directory {
					d := New(Config{Seed: 1337, TTL: ttl, Fanout: 3, Owners: 2}, ids, links)
					for i, n := range ids {
						d.SetHoldings(n, []string{objs[i%objects], objs[(i*7+3)%objects]})
					}
					return d
				}

				rounds := 0
				if !cutOpen {
					// Convergence probe at this scale: crash the first
					// object's primary owner plus one arbitrary member, then
					// count rounds until a sampled slice of the membership
					// resolves every object exactly (querying all 10k views
					// per round would dwarf the rounds being measured).
					d := build(8)
					d.MarkDown(d.Owners(objs[0])[0])
					d.MarkDown(ids[nodes/2])
					stride := nodes/64 + 1
					for ; rounds < 96 && !convergedSampled(d, objs, stride); rounds++ {
						d.Tick()
					}
					if !convergedSampled(d, objs, stride) {
						b.Fatalf("%d-node deployment failed to converge in 96 rounds", nodes)
					}
				}

				d := build(30)
				if cutOpen {
					var minority []string
					for _, i := range rand.New(rand.NewSource(1337)).Perm(nodes)[:nodes/10] {
						minority = append(minority, ids[i])
					}
					links.partition(minority...)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Tick()
				}
				if !cutOpen {
					b.ReportMetric(float64(rounds), "converge-rounds")
				}
				nsPerNode[nodes] = float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(nodes)
				if small, ok := nsPerNode[1000]; ok && nodes == 10000 {
					b.ReportMetric(nsPerNode[10000]/small, "per-node-cost-x")
				}
			})
		}
		small, okS := nsPerNode[1000]
		big, okB := nsPerNode[10000]
		if okS && okB && big/small > scaleCostBar {
			b.Fatalf("gossip round cost per node, cut=%v: %.2fx at 10k nodes vs 1k (%.0f vs %.0f ns), bar is <= %vx",
				cutOpen, big/small, big, small, scaleCostBar)
		}
	}
}

// convergedSampled is converged restricted to every stride-th live
// node's view — the sampled convergence check the scale benchmark can
// afford to run between rounds.
func convergedSampled(d *Directory, objs []string, stride int) bool {
	d.mu.Lock()
	live := d.aliveSortedLocked()
	truth := make(map[string][]string)
	for _, obj := range objs {
		for _, n := range live {
			if d.holdings[n][obj] {
				truth[obj] = append(truth[obj], n)
			}
		}
	}
	d.mu.Unlock()
	for _, obj := range objs {
		for i := 0; i < len(live); i += stride {
			if !reflect.DeepEqual(d.Lookup(live[i], obj), truth[obj]) {
				return false
			}
		}
	}
	return true
}
