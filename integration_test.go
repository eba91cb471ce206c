// Integration tests exercising the whole stack together: corpus →
// Squirrel (register/propagate) → boot chain → volumes → metrics, plus
// failure injection across layers.
package repro_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/zvol"
)

// deploy builds a scaled deployment with a matched corpus.
func deploy(t testing.TB, nodes int) (*core.Squirrel, *cluster.Cluster, *corpus.Repository) {
	t.Helper()
	cl, err := cluster.New(cluster.GigE, 4, nodes)
	if err != nil {
		t.Fatal(err)
	}
	pfs, err := cluster.NewPFS(cl, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ClusterSize = 4096
	cfg.Volume.BlockSize = 4096
	sq, err := core.New(cfg, cl, pfs)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := corpus.New(corpus.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	return sq, cl, repo
}

func TestFullLifecycle(t *testing.T) {
	sq, cl, repo := deploy(t, 6)
	t0 := time.Date(2014, 6, 23, 0, 0, 0, 0, time.UTC)

	// Register the whole repository.
	for i, im := range repo.Images {
		if _, err := sq.Register(context.Background(), core.RegisterRequest{Image: im, At: t0.Add(time.Duration(i) * time.Hour)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sq.Registered()); got != len(repo.Images) {
		t.Fatalf("registered %d of %d", got, len(repo.Images))
	}

	// Every image boots warm, byte-verified, on every node, with zero
	// cluster-wide network traffic.
	cl.ResetCounters()
	for _, im := range repo.Images {
		for _, n := range cl.Compute {
			rep, err := sq.Boot(context.Background(), core.BootRequest{Image: im.ID, Node: n.ID, Verify: true})
			if err != nil {
				t.Fatalf("boot %s on %s: %v", im.ID, n.ID, err)
			}
			if !rep.Warm {
				t.Fatalf("boot %s on %s not warm", im.ID, n.ID)
			}
		}
	}
	if cl.ComputeRxTotal() != 0 {
		t.Fatalf("warm boots moved %d network bytes", cl.ComputeRxTotal())
	}

	// Replica volumes must agree with the scVolume block for block.
	sc := sq.SCVolume().Stats()
	for _, n := range cl.Compute {
		ccv, _ := sq.CCVolume(n.ID)
		cs := ccv.Stats()
		if cs.UniqueBlocks != sc.UniqueBlocks || cs.Objects != sc.Objects {
			t.Fatalf("replica %s diverged: %+v vs %+v", n.ID, cs, sc)
		}
	}

	// Deregister half the repository; the dead caches disappear from
	// replicas at the next registration-triggered snapshot.
	half := repo.Images[:len(repo.Images)/2]
	for _, im := range half {
		if err := sq.Deregister(im.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Trigger a snapshot by registering an image with a distinct ID
	// (image IDs are distro-derived, so use a new distro name).
	spec2 := corpus.TestSpec()
	spec2.Distros = []corpus.DistroSpec{{Name: "arch", Count: 1, Releases: 1}}
	repo2, err := corpus.New(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sq.Register(context.Background(), core.RegisterRequest{Image: repo2.Images[0], At: t0.Add(1000 * time.Hour)}); err != nil {
		t.Fatal(err)
	}
	ccv, _ := sq.CCVolume("node00")
	for _, im := range half {
		if ccv.HasObject(im.ID) {
			t.Fatalf("deregistered %s still on replica", im.ID)
		}
	}

	// GC after the retention window leaves one snapshot per volume and
	// the volumes still serve warm boots.
	sq.GarbageCollect(t0.Add(5000 * time.Hour))
	for _, im := range repo.Images[len(repo.Images)/2:] {
		rep, err := sq.Boot(context.Background(), core.BootRequest{Image: im.ID, Node: "node00", Verify: true})
		if err != nil || !rep.Warm {
			t.Fatalf("post-GC boot %s: warm=%v err=%v", im.ID, rep.Warm, err)
		}
	}
}

func TestCacheContentMatchesCorpusThroughVolume(t *testing.T) {
	// Cache bytes written through zvol and read back must equal the
	// corpus's cache stream, for several volume configurations.
	repo, err := corpus.New(corpus.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	im := repo.Images[0]
	var want bytes.Buffer
	r := im.CacheReader()
	if _, err := want.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []zvol.Config{
		{BlockSize: block.Size4K, Codec: "gzip6", Dedup: true},
		{BlockSize: block.Size1K, Codec: "lz4", Dedup: true},
		{BlockSize: block.Size64K, Codec: "lzjb", Dedup: false},
	} {
		v, err := zvol.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.WriteObject(im.ID, im.CacheReader()); err != nil {
			t.Fatal(err)
		}
		got, err := v.ReadObject(im.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("config %+v corrupted cache content", cfg)
		}
	}
}

func TestCrashedNodeRecoversAndConverges(t *testing.T) {
	sq, cl, repo := deploy(t, 3)
	t0 := time.Date(2014, 6, 23, 0, 0, 0, 0, time.UTC)

	// Node 2 flaps repeatedly while registrations continue.
	for i, im := range repo.Images[:8] {
		if i%3 == 1 {
			sq.SetOnline("node02", false)
		} else {
			if !sqOnline(sq, "node02") {
				sq.SetOnline("node02", true)
				if _, err := sq.SyncNode(context.Background(), "node02"); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := sq.Register(context.Background(), core.RegisterRequest{Image: im, At: t0.Add(time.Duration(i) * time.Hour)}); err != nil {
			t.Fatal(err)
		}
	}
	sq.SetOnline("node02", true)
	if _, err := sq.SyncNode(context.Background(), "node02"); err != nil {
		t.Fatal(err)
	}
	// After the final sync, node02 boots everything warm.
	cl.ResetCounters()
	for _, im := range repo.Images[:8] {
		rep, err := sq.Boot(context.Background(), core.BootRequest{Image: im.ID, Node: "node02", Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Warm {
			t.Fatalf("%s cold on recovered node", im.ID)
		}
	}
	if cl.ComputeRxTotal() != 0 {
		t.Fatal("recovered node still pulled boot bytes")
	}
}

// sqOnline is a test helper peeking at online state via SyncNode-free
// means: SetOnline errors only for unknown nodes, so track via boot.
func sqOnline(sq *core.Squirrel, node string) bool {
	_, err := sq.Boot(context.Background(), core.BootRequest{Image: "definitely-missing-image", Node: node, Verify: false})
	// ErrUnknownImage means the node path was reachable → online.
	return err != nil && err.Error() == "core: image not registered: definitely-missing-image"
}

func TestMetricsAgreeWithVolumeStats(t *testing.T) {
	// The analysis pipeline (metrics) and the storage pipeline (zvol)
	// must agree on dedup fundamentals: unique blocks counted by Analyze
	// equal the DDT entries after storing the same sources, at the same
	// block size with no compression.
	repo, err := corpus.New(corpus.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	images := repo.Images[:6]
	bs := block.Size4K

	v, err := zvol.New(zvol.Config{BlockSize: bs, Codec: "null", Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range images {
		if _, err := v.WriteObject(im.ID, im.CacheReader()); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()

	unique := map[block.Hash]bool{}
	var nonzero int64
	for _, im := range images {
		err := im.CacheBlocks(bs, func(_ int64, data []byte, zero bool) error {
			if zero {
				return nil
			}
			nonzero++
			unique[block.HashOf(data)] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.UniqueBlocks != int64(len(unique)) {
		t.Fatalf("volume has %d unique blocks, analysis says %d", st.UniqueBlocks, len(unique))
	}
	if st.References != nonzero {
		t.Fatalf("volume has %d references, analysis says %d", st.References, nonzero)
	}
}
