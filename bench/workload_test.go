package main

import (
	"reflect"
	"testing"
)

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.sequence(7), w.sequence(7)
		if len(a) != w.roundOps {
			t.Errorf("%s: %d ops, want %d", w.name, len(a), w.roundOps)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", w.name)
		}
		other := w.sequence(8)
		if w.name == "register_stream" {
			// Corpus order, whatever the seed: an image registers once
			// and each diff depends on what registered before it.
			for i, o := range other {
				if o.kind != opRegister || o.image != i {
					t.Fatalf("register_stream op %d = %+v, want registration of image %d", i, o, i)
				}
			}
			continue
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
	}
}

func TestSequenceShape(t *testing.T) {
	warm, _ := workloadByName("warm_boot")
	nodes := map[int]bool{}
	perImage := make([]int, warm.images)
	for _, o := range warm.sequence(1) {
		if o.kind != opBoot || o.image < 0 || o.image >= warm.images || o.node < 0 || o.node >= warm.nodes {
			t.Fatalf("warm_boot generated %+v", o)
		}
		nodes[o.node] = true
		perImage[o.image]++
	}
	if len(nodes) != warm.nodes {
		t.Errorf("warm_boot boots landed on %d of %d nodes", len(nodes), warm.nodes)
	}
	if perImage[0] <= perImage[warm.images-1] || perImage[0] < warm.roundOps/4 {
		t.Errorf("warm_boot image popularity is not Zipf-skewed: %v", perImage)
	}

	cold, _ := workloadByName("cold_boot")
	for _, o := range cold.sequence(1) {
		if o.node >= cold.coldNodes {
			t.Fatalf("cold_boot boot landed on node %d, which keeps its replicas", o.node)
		}
	}

	ctl, _ := workloadByName("control_rpc")
	mix := map[opKind]int{}
	for _, o := range ctl.sequence(1) {
		mix[o.kind]++
	}
	for kind, share := range map[opKind]float64{opComputeRx: 0.4, opHealth: 0.3, opInfo: 0.2, opStats: 0.1} {
		got := float64(mix[kind]) / float64(ctl.roundOps)
		if got < share-0.03 || got > share+0.03 {
			t.Errorf("control_rpc %s share = %.3f, want about %.1f", kind, got, share)
		}
	}
}

func TestDaemonArgsMatchOptions(t *testing.T) {
	cold, _ := workloadByName("cold_boot")
	want := []string{"-addr", "127.0.0.1:0", "-images", "32", "-nodes", "8", "-peers"}
	if got := cold.daemonArgs(); !reflect.DeepEqual(got, want) {
		t.Errorf("cold_boot daemon args = %v, want %v", got, want)
	}
	if o := cold.options(); o.Images != 32 || o.Nodes != 8 || !o.Peers {
		t.Errorf("cold_boot options = %+v", o)
	}
}
