package obs

import (
	"testing"
	"time"
)

// dumpNode hand-builds one finished TreeDump node.
func dumpNode(kind string, wall time.Duration, err string, kids ...*TreeDump) *TreeDump {
	return &TreeDump{Kind: kind, Start: 1, End: 1 + int64(wall), Err: err, Children: kids}
}

// TestSlowestPicksFailedThenLongest pins the one selection rule both
// trace surfaces share: the first failed span of the kind anywhere in
// the trees, else the longest wall with ties to the first — and it
// looks at every span of the kind, not only the first in each tree.
func TestSlowestPicksFailedThenLongest(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name     string
		trees    []*TreeDump
		wantTree int
		wantOp   []int // child path below the chosen tree
	}{
		{
			name: "failed beats longer",
			trees: []*TreeDump{
				dumpNode(OpRPC, 20*ms, "", dumpNode(OpPeerFetch, 10*ms, "")),
				dumpNode(OpRPC, 20*ms, "", dumpNode(OpPeerFetch, ms, "peer gone")),
			},
			wantTree: 1, wantOp: []int{0},
		},
		{
			name: "longest wins, ties to the first",
			trees: []*TreeDump{
				dumpNode(OpRPC, 20*ms, "", dumpNode(OpPeerFetch, 5*ms, "")),
				dumpNode(OpRPC, 20*ms, "", dumpNode(OpPeerFetch, 9*ms, "")),
				dumpNode(OpRPC, 20*ms, "", dumpNode(OpPeerFetch, 9*ms, "")),
			},
			wantTree: 1, wantOp: []int{0},
		},
		{
			name: "failed second of two under one tree",
			trees: []*TreeDump{
				dumpNode(OpRPC, 20*ms, "", dumpNode(OpPeerFetch, 9*ms, "")),
				dumpNode(OpRPC, 20*ms, "", dumpNode(OpDispatch, 5*ms, "",
					dumpNode(OpPeerFetch, ms, ""),
					dumpNode(OpPeerFetch, 2*ms, "peer gone"))),
			},
			wantTree: 1, wantOp: []int{0, 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.trees[tc.wantTree]
			for _, i := range tc.wantOp {
				want = want.Children[i]
			}
			tree, op := Slowest(tc.trees, OpPeerFetch)
			if tree != tc.trees[tc.wantTree] || op != want {
				t.Fatalf("Slowest picked %+v in %+v, want %+v in tree %d", op, tree, want, tc.wantTree)
			}
		})
	}
	if tree, op := Slowest([]*TreeDump{dumpNode(OpRPC, ms, "")}, OpPeerFetch); tree != nil || op != nil {
		t.Fatalf("Slowest found %+v in a tree without the kind", op)
	}
}
