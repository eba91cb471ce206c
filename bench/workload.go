package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// opKind is one control-plane call a workload issues.
type opKind uint8

const (
	opBoot opKind = iota
	opRegister
	opComputeRx
	opHealth
	opInfo
	opStats
)

func (k opKind) String() string {
	return [...]string{"boot", "register", "compute_rx", "health", "info", "stats"}[k]
}

// op is one generated request: the call, and for boots and
// registrations the image and node it names, as indexes into the
// deployment's Info().Images and Info().ComputeNodes.
type op struct {
	kind  opKind
	image int
	node  int
}

// workload is one traffic mix and the deployment it runs against. Why
// each exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string

	// The deployment: squirreld's own -images, -nodes and -peers flags.
	images, nodes int
	peers         bool

	// clients is the closed-loop caller count, one connection each.
	clients int
	// roundOps is the length of the op sequence every round replays.
	roundOps int
	// tracedOps is the prefix of that sequence the traced run replays.
	tracedOps int
	// coldNodes is how many leading compute nodes have every replica
	// dropped during set-up; boots land only on those.
	coldNodes int
	// freshPerRound runs every round against a newly started daemon
	// (an image registers once, so a registration round cannot repeat).
	freshPerRound bool
}

// Zipf exponent of image popularity, as ROADMAP's workload engine uses
// for multi-tenant skew.
const zipfS = 1.2

var workloads = []*workload{
	{
		name:   "warm_boot",
		images: 32, nodes: 8, clients: 2, roundOps: 1000, tracedOps: 400,
	},
	{
		name:   "cold_boot",
		images: 32, nodes: 8, peers: true, clients: 2, roundOps: 500, tracedOps: 400, coldNodes: 4,
	},
	{
		name:   "register_stream",
		images: 320, nodes: 8, clients: 1, roundOps: 320, tracedOps: 64, freshPerRound: true,
	},
	{
		name:   "control_rpc",
		images: 32, nodes: 8, clients: 2, roundOps: 10000, tracedOps: 2000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// daemonArgs are the squirreld flags that build this workload's
// deployment on an ephemeral loopback port.
func (w *workload) daemonArgs() []string {
	args := []string{"-addr", "127.0.0.1:0", "-images", strconv.Itoa(w.images), "-nodes", strconv.Itoa(w.nodes)}
	if w.peers {
		args = append(args, "-peers")
	}
	return args
}

// preRegistered is how many images set-up registers before the first
// round: all of them, except where registering is the workload.
func (w *workload) preRegistered() int {
	if w.freshPerRound {
		return 0
	}
	return w.images
}

// sequence generates the op sequence of one round from seed. Every
// round of a run replays the same sequence; the daemon sees only these
// requests. Registration order is the corpus order, which the seed does
// not change: each image registers once and the diff a registration
// ships depends on what registered before it.
func (w *workload) sequence(seed int64) []op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]op, w.roundOps)
	switch w.name {
	case "warm_boot", "cold_boot":
		zipf := rand.NewZipf(r, zipfS, 1, uint64(w.images-1))
		bootNodes := w.nodes
		if w.coldNodes > 0 {
			bootNodes = w.coldNodes
		}
		for i := range ops {
			ops[i] = op{kind: opBoot, image: int(zipf.Uint64()), node: r.Intn(bootNodes)}
		}
	case "register_stream":
		for i := range ops {
			ops[i] = op{kind: opRegister, image: i}
		}
	case "control_rpc":
		for i := range ops {
			switch p := r.Intn(10); {
			case p < 4:
				ops[i].kind = opComputeRx
			case p < 7:
				ops[i].kind = opHealth
			case p < 9:
				ops[i].kind = opInfo
			default:
				ops[i].kind = opStats
			}
		}
	}
	return ops
}
