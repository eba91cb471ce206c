package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/version"
)

// Main is the testable entry point: it parses args, runs the selected
// surface against stdout/stderr, and returns the process exit code.
// args[0] is the subcommand name; without one the root usage is the
// answer.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		rootUsage(stderr)
		return exitUsage
	}
	return dispatch(args[0], args[1:], stdout, stderr)
}

// command is one subcommand: a name, a one-line summary for the root
// usage, and a parser that fills the shared options struct.
type command struct {
	name    string
	summary string
	parse   func(args []string, stderr io.Writer) (options, error)
}

// commands in display order.
var commands = []command{
	{"run", "register the corpus and boot VMs on every node (the base scenario)", parseRun},
	{"health", "base scenario plus crash/rot/scrub/resilver drama and health tables", parseHealth},
	{"peers", "base scenario with the peer block exchange on; dumps the content index", parsePeers},
	{"telemetry", "traced full scenario; dumps the unified telemetry snapshot", parseTelemetry},
	{"trace", "traced full scenario; renders the slowest <kind> operation's span tree", parseTrace},
	{"watch", "full scenario while streaming live telemetry deltas", parseWatch},
	{"workload", "drive a workload-engine scenario (arrival process, Zipf tenants, tail latency)", parseWorkload},
	{"version", "print version and exit", nil},
}

func dispatch(name string, args []string, stdout, stderr io.Writer) int {
	if name == "version" {
		fmt.Fprintln(stdout, version.String())
		return 0
	}
	if name == "help" || name == "-h" || name == "--help" {
		rootUsage(stdout)
		return 0
	}
	for _, cmd := range commands {
		if cmd.name != name {
			continue
		}
		o, err := cmd.parse(args, stderr)
		if err != nil {
			if !errors.Is(err, flag.ErrHelp) {
				fmt.Fprintln(stderr, err)
			}
			return exitUsage
		}
		return execute(o, stdout, stderr)
	}
	fmt.Fprintf(stderr, "squirrelctl: unknown command %q\n\n", name)
	rootUsage(stderr)
	return exitUsage
}

func rootUsage(w io.Writer) {
	fmt.Fprintf(w, "usage: squirrelctl <command> [flags]\n\ncommands:\n")
	for _, cmd := range commands {
		fmt.Fprintf(w, "  %-10s %s\n", cmd.name, cmd.summary)
	}
	fmt.Fprintf(w, "\nRun 'squirrelctl <command> -h' for the command's flags.\n")
}

// newFlagSet builds a subcommand FlagSet that reports parse errors
// instead of exiting, with usage on stderr.
func newFlagSet(name, blurb string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("squirrelctl "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: squirrelctl %s\n%s\n\nflags:\n", name, blurb)
		fs.PrintDefaults()
	}
	return fs
}

// Shared flag groups. Every subcommand sizes its in-process deployment
// and can target a daemon; the scenario subcommands share the script
// knobs on top.

func addDeployment(fs *flag.FlagSet, o *options, images, nodes int) {
	fs.IntVar(&o.images, "images", images, "images to register (in-process mode; the daemon's corpus governs with -addr)")
	fs.IntVar(&o.nodes, "nodes", nodes, "compute nodes (in-process mode; the daemon's cluster governs with -addr)")
	fs.StringVar(&o.addr, "addr", "", "drive a live squirreld at this TCP address instead of an in-process deployment")
	fs.StringVar(&o.index, "index", "", "content-index implementation: central (default) or gossip (decentralized TTL-lease directory; implies the peer exchange)")
}

func addScenario(fs *flag.FlagSet, o *options) {
	fs.IntVar(&o.vms, "vms", 2, "VMs booted per node")
	fs.StringVar(&o.offline, "offline", "", "node to take offline during registrations")
	fs.BoolVar(&o.verify, "verify", true, "verify boot data against image content")
}

func parseRun(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := newFlagSet("run [flags]", "Register the corpus and boot VMs on every node.", stderr)
	addDeployment(fs, &o, 16, 8)
	addScenario(fs, &o)
	fs.BoolVar(&o.peers, "peers", false, "enable the peer block exchange, drop one replica to force a peer-served cold boot, and dump the content index")
	return o, fs.Parse(args)
}

func parseHealth(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := newFlagSet("health [flags]", "Base scenario, then crash a node, rot another, scrub, resilver, restart, dumping per-node health at each step.", stderr)
	addDeployment(fs, &o, 16, 8)
	addScenario(fs, &o)
	fs.BoolVar(&o.peers, "peers", false, "also enable the peer block exchange")
	o.health = true
	return o, fs.Parse(args)
}

func parsePeers(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := newFlagSet("peers [flags]", "Base scenario with the peer block exchange on: a dropped replica forces a peer-served cold boot, and the content index is dumped.", stderr)
	addDeployment(fs, &o, 16, 8)
	addScenario(fs, &o)
	o.peers = true
	return o, fs.Parse(args)
}

func parseTelemetry(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := newFlagSet("telemetry [flags]", "Traced full scenario (peers + health drama), then the unified telemetry snapshot as JSON and Prometheus text.", stderr)
	addDeployment(fs, &o, 16, 8)
	addScenario(fs, &o)
	o.telemetry = true
	return o, fs.Parse(args)
}

func parseTrace(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := newFlagSet("trace [flags] <kind>", "Traced full scenario, then the span tree of the slowest operation of the given kind (register, boot, scrub, resilver, sync, gc, restart).", stderr)
	addDeployment(fs, &o, 16, 8)
	addScenario(fs, &o)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return o, fmt.Errorf("squirrelctl trace: need exactly one operation kind, got %d args", fs.NArg())
	}
	o.trace = fs.Arg(0)
	return o, nil
}

func parseWatch(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := newFlagSet("watch [flags]", "Full scenario while streaming live telemetry deltas (in-process: implies tracing; with -addr: the daemon must run -traced).", stderr)
	addDeployment(fs, &o, 16, 8)
	addScenario(fs, &o)
	fs.IntVar(&o.watchN, "n", 3, "telemetry updates to stream during the run")
	fs.DurationVar(&o.watchIvl, "interval", time.Second, "interval between updates")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.watchN < 1 {
		return o, fmt.Errorf("squirrelctl watch: -n must be >= 1")
	}
	return o, nil
}

func parseWorkload(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := newFlagSet("workload [flags]", "Provision the catalog and drive a seeded arrival-process scenario through virtual per-node boot slots and the deployment's peer machinery, reporting the boot-latency tail.", stderr)
	addDeployment(fs, &o, 16, 64)
	fs.StringVar(&o.wl.Arrivals, "arrivals", "poisson", "arrival process: poisson, diurnal, or flash (the 9am new-image storm)")
	fs.Int64Var(&o.wl.Seed, "seed", 1, "seed driving arrivals, tenant popularity, and cold-node placement")
	fs.IntVar(&o.wl.Boots, "boots", 0, "total boot arrivals to schedule (0 = 100 per node)")
	fs.IntVar(&o.wl.Tenants, "tenants", 0, "tenants with independent Zipf popularity permutations (0 = default 8)")
	fs.Float64Var(&o.wl.ZipfS, "zipf", 0, "Zipf skew exponent > 1 (0 = default 1.2)")
	fs.Float64Var(&o.wl.ColdFrac, "cold", 0, "fraction of nodes booting the storm image cold (0 = default 0.05)")
	fs.IntVar(&o.wl.Slots, "slots", 0, "virtual concurrent boot slots per node (0 = default 2)")
	fs.Float64Var(&o.wl.DeviceMs, "device", 0, "device/hypervisor service milliseconds per boot (0 = default 400)")
	fs.Float64Var(&o.wl.ShedMs, "shed", 0, "virtual admission deadline in milliseconds (0 = default 2000)")
	fs.Float64Var(&o.wl.HorizonSec, "horizon", 0, "arrival window in seconds the rate curves are shaped over (0 = default 3600)")
	o.workload = true
	// Cold boots are the point of the scenario: without the peer
	// exchange every miss would fall back to the PFS and the peer-hit
	// rate would read zero no matter what the cluster does.
	o.peers = true
	return o, fs.Parse(args)
}
