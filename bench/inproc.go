package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/corpus"
	"repro/internal/ctlplane"
	"repro/internal/daemon"
)

// inproc is a workload's deployment built inside this process: the
// same ctlplane.Options squirreld derives from the workload's flags,
// served by a real daemon.Server on loopback. The traced run uses it to
// reach the layers under the wire; the smoke test uses it as the
// deployment so that every workload runs under `go test`.
type inproc struct {
	local *ctlplane.Local
	srv   *daemon.Server
	// images is the deployment's corpus, rebuilt here because Local does
	// not expose its own.
	images []*corpus.Image
	served chan error
}

// options are the ctlplane.Options cmd/squirreld builds from
// w.daemonArgs().
func (w *workload) options() ctlplane.Options {
	return ctlplane.Options{Images: w.images, Nodes: w.nodes, Peers: w.peers}
}

// rebuildCorpus regenerates the corpus ctlplane.NewLocal builds for n
// images, by NewLocal's own recipe. startInproc asserts the result
// against the deployment's Info, so a recipe change cannot go unnoticed.
func rebuildCorpus(n int) ([]*corpus.Image, error) {
	repo, err := corpus.New(corpus.DefaultSpec().Scale(float64(n)/607, 0.25))
	if err != nil {
		return nil, err
	}
	if len(repo.Images) > n {
		repo.Images = repo.Images[:n]
	}
	return repo.Images, nil
}

func startInproc(w *workload) (*inproc, error) {
	local, err := ctlplane.NewLocal(w.options())
	if err != nil {
		return nil, err
	}
	images, err := rebuildCorpus(w.images)
	if err != nil {
		return nil, err
	}
	info, err := local.Info()
	if err != nil {
		return nil, err
	}
	if len(info.Images) != len(images) {
		return nil, fmt.Errorf("rebuilt corpus has %d images, the deployment %d", len(images), len(info.Images))
	}
	for i, im := range images {
		if im.ID != info.Images[i] {
			return nil, fmt.Errorf("rebuilt corpus image %d is %s, the deployment's is %s", i, im.ID, info.Images[i])
		}
	}
	d := &inproc{local: local, images: images, served: make(chan error, 1)}
	d.srv = daemon.New(local, daemon.Config{Addr: "127.0.0.1:0"})
	if err := d.srv.Listen(); err != nil {
		return nil, err
	}
	go func() { d.served <- d.srv.Serve() }()
	return d, nil
}

func (d *inproc) Addr() string { return d.srv.Addr().String() }

// CPUms and PeakRSSMB read this process: in-process, the daemon's share
// cannot be told apart from the driver's.
func (d *inproc) CPUms() (float64, error) { return procCPUms(os.Getpid()) }

func (d *inproc) PeakRSSMB() (float64, error) { return procPeakRSSMB(os.Getpid()) }

func (d *inproc) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("in-process daemon shutdown: %w", err)
	}
	return <-d.served
}

// inprocLauncher serves every deployment from this process.
func inprocLauncher(w *workload, _ string) (deployment, error) { return startInproc(w) }
