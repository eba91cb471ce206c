package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/fault"
)

// run executes the scenario script selected by o against sess, writing
// every report to w.
func run(ctx context.Context, sess ctlplane.Session, o options, w io.Writer) error {
	info, err := sess.Info()
	if err != nil {
		return err
	}
	images, nodes := info.Images, info.ComputeNodes

	// The watch stream runs concurrently with the script, so its deltas
	// show live operation counts moving; run waits for the stream to
	// finish before dumping the final snapshot.
	var watchDone chan error
	if o.watchN > 0 {
		// The stream goroutine and the script share one writer;
		// serialize so watch lines never land mid-line in a report.
		w = &syncWriter{w: w}
		watchDone = make(chan error, 1)
		go func() {
			watchDone <- sess.Watch(ctx, ctlplane.WatchArgs{Every: o.watchIvl, Count: o.watchN},
				func(u ctlplane.WatchUpdate) error { return printWatch(w, u) })
		}()
	}

	t0 := time.Date(2014, 6, 23, 9, 0, 0, 0, time.UTC)
	fmt.Fprintf(w, "registering %d images on a %d-node cluster...\n", len(images), len(nodes))
	var diffTotal int64
	for i, id := range images {
		if o.offline != "" && i == len(images)/2 {
			if err := sess.SetOnline(o.offline, false); err != nil {
				return err
			}
			fmt.Fprintf(w, "  %s goes OFFLINE\n", o.offline)
		}
		rep, err := sess.Register(ctx, id, t0.Add(time.Duration(i)*time.Minute))
		if err != nil {
			return err
		}
		diffTotal += rep.DiffBytes
		fmt.Fprintf(w, "  %-24s cache %7d B  diff %7d B  → %d nodes in %.3fs\n",
			rep.ImageID, rep.CacheBytes, rep.DiffBytes, rep.Nodes, rep.XferSec)
	}
	fmt.Fprintf(w, "total diff traffic: %.2f MB for %.2f MB of caches (dedup across caches)\n\n",
		float64(diffTotal)/(1<<20), float64(info.CacheBytes)/(1<<20))

	if o.offline != "" {
		if err := sess.SetOnline(o.offline, true); err != nil {
			return err
		}
		rep, err := sess.SyncNode(ctx, o.offline)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s back online: %s sync, %d bytes\n\n", o.offline, rep.Mode, rep.Bytes)
	}

	if o.peers {
		// Manufacture one cold miss so the boot wave exercises the peer
		// path: the first compute node loses its replica of the first
		// image and must fetch it from a neighbor.
		node, im := nodes[0], images[0]
		if err := sess.DropReplica(node, im); err != nil {
			return err
		}
		fmt.Fprintf(w, "peer exchange on; dropped %s's replica of %s\n\n", node, im)
	}

	fmt.Fprintf(w, "booting %d VMs per node, all from warm replicas...\n", o.vms)
	if err := sess.ResetNetCounters(); err != nil {
		return err
	}
	img := 0
	for _, n := range nodes {
		for v := 0; v < o.vms; v++ {
			im := images[img%len(images)]
			img++
			rep, err := sess.Boot(ctx, core.BootRequest{Image: im, Node: n, Verify: o.verify})
			if err != nil {
				return err
			}
			if !rep.Warm {
				src := rep.PeerNode
				if src == "" {
					src = "-"
				}
				fmt.Fprintf(w, "  %s on %s: COLD (%d PFS bytes, %d peer bytes from %s)\n",
					im, n, rep.NetworkBytes, rep.PeerBytes, src)
			}
		}
	}
	rx, err := sess.ComputeRx()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %d boots done; compute-node network traffic: %d bytes\n\n", img, rx)

	ds, err := sess.Stats()
	if err != nil {
		return err
	}
	st := ds.SCVolume
	fmt.Fprintln(w, "deployment stats:")
	fmt.Fprintf(w, "  %d images registered on %d/%d online nodes (%d stale replicas)\n",
		ds.RegisteredImages, ds.OnlineNodes, ds.ComputeNodes, ds.StaleReplicas)
	fmt.Fprintf(w, "  scVolume: objects %d, logical %.2f MB, disk %.2f MB (data %.2f + DDT %.2f + meta %.2f)\n",
		st.Objects, mb(st.LogicalBytes), mb(st.DiskBytes), mb(st.DataBytes), mb(st.DDTDiskBytes), mb(st.MetaBytes))
	fmt.Fprintf(w, "  per-node replica cost: %.2f MB disk, %.2f MB DDT memory, dedup ratio %.2f\n",
		mb(ds.ReplicaDiskBytes), mb(ds.ReplicaMemBytes), st.DedupRatio)
	if o.peers {
		fmt.Fprintf(w, "\npeer content index: %d objects, %d announcements\n",
			ds.PeerIndexObjects, ds.PeerIndexEntries)
		if ds.IndexSource == "gossip" {
			fmt.Fprintf(w, "  index source: %s (round %d, %d stale leases in live views)\n",
				ds.IndexSource, ds.GossipRound, ds.GossipStale)
		} else {
			fmt.Fprintf(w, "  index source: %s\n", ds.IndexSource)
		}
		fmt.Fprintf(w, "  %-8s  %-6s  %-12s  %s\n", "node", "active", "served reads", "served bytes")
		for _, l := range ds.PeerLoads {
			fmt.Fprintf(w, "  %-8s  %-6d  %-12d  %d\n", l.NodeID, l.Active, l.ServedReads, l.ServedBytes)
		}
		ctr, err := sess.PeerCounters()
		if err != nil {
			return err
		}
		if ctr != "" {
			fmt.Fprintf(w, "  counters:\n")
			for _, line := range strings.Split(strings.TrimRight(ctr, "\n"), "\n") {
				fmt.Fprintf(w, "    %s\n", line)
			}
		}
	}

	if o.health {
		if err := healthDrama(ctx, sess, nodes, t0, w); err != nil {
			return err
		}
	}

	n, err := sess.GarbageCollect(t0.Add(30 * 24 * time.Hour))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ngarbage collection destroyed %d old snapshots\n", n)

	if watchDone != nil {
		if err := <-watchDone; err != nil {
			return err
		}
	}
	if o.telemetry {
		dump, err := sess.Telemetry()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n--- telemetry snapshot (JSON) ---\n%s\n", dump.JSON)
		fmt.Fprintf(w, "\n--- telemetry snapshot (Prometheus text) ---\n%s", dump.Prometheus)
	}
	if o.trace != "" {
		var tree string
		var err error
		if mc, ok := sess.(interface{ TraceMerged(string) (string, error) }); ok {
			// Daemon session with client-side tracing: render the merged
			// tree spanning dial → rpc → daemon dispatch → core operation.
			tree, err = mc.TraceMerged(o.trace)
		} else {
			tree, err = sess.TraceSlowest(o.trace)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n--- slowest %q operation ---\n%s", o.trace, tree)
	}
	return nil
}

// printWatch renders one live telemetry delta from the watch stream.
func printWatch(w io.Writer, u ctlplane.WatchUpdate) error {
	fmt.Fprintf(w, "watch #%d: spans=%d gossip round=%d stale=%d\n",
		u.Seq, u.SpansRecorded, u.GossipRound, u.GossipStale)
	for _, op := range u.Ops {
		fmt.Fprintf(w, "  watch %-14s count=%-6d delta=%-5d errs=%-4d p50=%.2fms p99=%.2fms\n",
			op.Kind, op.Count, op.Delta, op.Errors, op.P50Ms, op.P99Ms)
	}
	if len(u.Counters) > 0 {
		fmt.Fprintf(w, "  watch %d counters changed\n", len(u.Counters))
	}
	return nil
}

// healthDrama walks the crash/rot/scrub/resilver lifecycle on a live
// deployment and dumps the per-node health table after each act — the
// operator's view of §3.5 robustness plus the at-rest integrity layer.
func healthDrama(ctx context.Context, sess ctlplane.Session, nodes []string, t0 time.Time, w io.Writer) error {
	if len(nodes) < 2 {
		return fmt.Errorf("health needs at least 2 compute nodes")
	}
	crashed, rotten := nodes[0], nodes[1]

	// A rot-only plan: nothing in the registration path fires, but
	// InjectRot has deterministic at-rest damage to plant.
	if err := sess.SetFaults(fault.Plan{Seed: 99, Rot: 0.4}); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n--- health drama: crash %s, rot %s ---\n", crashed, rotten)
	if err := sess.CrashNode(crashed, t0.Add(time.Hour)); err != nil {
		return err
	}
	rotted, err := sess.InjectRot(rotten)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s crashed; %d blocks silently rotted on %s (latent — still undetected)\n",
		crashed, rotted, rotten)
	if err := printHealth(sess, w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nscrubbing all replicas...\n")
	scrubs, err := sess.ScrubAll(ctx, t0.Add(2*time.Hour))
	if err != nil {
		return err
	}
	scrubbed := make([]string, 0, len(scrubs))
	for id := range scrubs {
		scrubbed = append(scrubbed, id)
	}
	sort.Strings(scrubbed) // a map's order would flip the output run to run
	for _, id := range scrubbed {
		if rep := scrubs[id]; rep.CorruptBlocks+rep.MissingBlocks > 0 {
			fmt.Fprintf(w, "  %s: %d/%d blocks failed verification — quarantined and withdrawn\n",
				id, rep.CorruptBlocks+rep.MissingBlocks, rep.Blocks)
		}
	}
	if err := printHealth(sess, w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nresilvering damaged replicas...\n")
	rres, err := sess.ResilverAll(ctx, t0.Add(3*time.Hour))
	if err != nil {
		return err
	}
	for _, r := range rres {
		fmt.Fprintf(w, "  %s: repaired %d/%d (peer %d blocks/%d B, pfs %d blocks/%d B) in %.3fs\n",
			r.NodeID, r.Repaired, r.Blocks, r.PeerBlocks, r.PeerBytes, r.PFSBlocks, r.PFSBytes, r.XferSec)
	}
	rec, err := sess.RestartNode(crashed, t0.Add(4*time.Hour))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %s restarted after %s down: rolled back=%v, scrub %d blocks clean=%v\n",
		rec.NodeID, rec.Downtime, rec.RolledBack, rec.Scrub.Blocks, rec.Damaged == 0)
	ds, err := sess.Stats()
	if err != nil {
		return err
	}
	if ds.LaggingNodes > 0 {
		if _, err := sess.SyncNode(ctx, crashed); err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s healed via SyncNode\n", crashed)
	}
	return printHealth(sess, w)
}

// printHealth dumps the per-node health table.
func printHealth(sess ctlplane.Session, w io.Writer) error {
	sts, err := sess.Health()
	if err != nil {
		return err
	}
	ds, err := sess.Stats()
	if err != nil {
		return err
	}
	gossiping := ds.IndexSource == "gossip"
	// The view/stale columns are the gossip directory's per-node lease
	// view (dashes under the central index, which has no per-node views).
	fmt.Fprintf(w, "\n  %-8s  %-11s  %-7s  %-9s  %-9s  %-5s  %-5s  %-10s  %s\n",
		"node", "state", "corrupt", "withdrawn", "breaker", "view", "stale", "last scrub", "snapshot")
	for _, st := range sts {
		scrub, down := "never", ""
		if !st.LastScrub.IsZero() {
			scrub = st.LastScrub.Format("15:04:05")
		}
		if !st.DownSince.IsZero() {
			down = "  down since " + st.DownSince.Format("15:04:05")
		}
		if st.Unreachable {
			down += "  UNREACHABLE (partitioned)"
		}
		snap := st.Snapshot
		if snap == "" {
			snap = "-"
		}
		breaker := st.Breaker
		if breaker == "" {
			breaker = "-"
		}
		view, stale := "-", "-"
		if gossiping {
			view = fmt.Sprintf("%d", st.ViewLeases)
			stale = fmt.Sprintf("%d", st.ViewStale)
		}
		fmt.Fprintf(w, "  %-8s  %-11s  %-7d  %-9v  %-9s  %-5s  %-5s  %-10s  %s%s\n",
			st.NodeID, st.State, st.CorruptBlocks, st.Withdrawn, breaker, view, stale, scrub, snap, down)
	}
	return nil
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// syncWriter makes a writer safe for the watch goroutine and the
// scenario script to share.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
