package octree

// DynamicTree is the PCL-flavoured octree whose bounding cube is grown
// point-by-point: it starts empty, wraps the first point in a small cube,
// and whenever a later point falls outside, the cube doubles (re-rooting the
// tree with the old root as one octant of the new root) until the point
// fits. This reproduces the behaviour the paper's Fig. 5 walks through and
// is the reason the baseline construction is inherently sequential: the
// shape of the global tree is unknown until the last point is inserted.
//
// Coordinates are signed integers (unit = one voxel).
type DynamicTree struct {
	root *Node
	// Cube origin (inclusive) and side length; side is a power of two.
	ox, oy, oz int64
	side       int64
	numPoints  int
	numNodes   int
	expansions int // how many times the cube doubled (Fig. 5's growth)
}

// NewDynamicTree returns an empty tree.
func NewDynamicTree() *DynamicTree { return &DynamicTree{} }

// Side returns the current bounding-cube side length (0 while empty).
func (t *DynamicTree) Side() int64 { return t.side }

// NumPoints returns the number of distinct unit cells occupied.
func (t *DynamicTree) NumPoints() int { return t.numPoints }

// NumNodes returns the number of tree nodes.
func (t *DynamicTree) NumNodes() int { return t.numNodes }

// Expansions returns how many times the bounding cube doubled.
func (t *DynamicTree) Expansions() int { return t.expansions }

func (t *DynamicTree) contains(x, y, z int64) bool {
	return x >= t.ox && x < t.ox+t.side &&
		y >= t.oy && y < t.oy+t.side &&
		z >= t.oz && z < t.oz+t.side
}

// grow doubles the cube towards (x, y, z): the existing cube becomes one
// octant of the doubled cube, chosen per axis so the cube extends towards
// the out-of-box point.
func (t *DynamicTree) grow(x, y, z int64) {
	oldOct := 0
	if x < t.ox {
		// Extend downwards: old cube sits in the upper x half.
		t.ox -= t.side
		oldOct |= 1
	}
	if y < t.oy {
		t.oy -= t.side
		oldOct |= 2
	}
	if z < t.oz {
		t.oz -= t.side
		oldOct |= 4
	}
	newRoot := &Node{}
	newRoot.Children[oldOct] = t.root
	t.root = newRoot
	t.side <<= 1
	t.numNodes++
	t.expansions++
}

// Insert adds the unit cell (x, y, z), expanding the cube as needed.
// Reports whether a new cell was created.
func (t *DynamicTree) Insert(x, y, z int64) bool {
	if t.root == nil {
		// First point: wrap it in a side-2 cube anchored at the even
		// lattice point below it (step-size 2^1, as in Fig. 5).
		t.root = &Node{}
		t.numNodes = 1
		t.side = 2
		t.ox, t.oy, t.oz = x&^1, y&^1, z&^1
	}
	for !t.contains(x, y, z) {
		t.grow(x, y, z)
	}
	n := t.root
	ox, oy, oz := t.ox, t.oy, t.oz
	created := false
	for side := t.side; side > 1; side >>= 1 {
		half := side >> 1
		o := 0
		if x >= ox+half {
			o |= 1
			ox += half
		}
		if y >= oy+half {
			o |= 2
			oy += half
		}
		if z >= oz+half {
			o |= 4
			oz += half
		}
		if n.Children[o] == nil {
			n.Children[o] = &Node{}
			t.numNodes++
			created = true
		}
		n = n.Children[o]
	}
	if created {
		t.numPoints++
	}
	return created
}

// Cells returns all occupied unit cells in DFS (Morton-within-cube) order.
func (t *DynamicTree) Cells() [][3]int64 {
	if t.root == nil {
		return nil
	}
	var out [][3]int64
	var walk func(n *Node, ox, oy, oz, side int64)
	walk = func(n *Node, ox, oy, oz, side int64) {
		if side == 1 {
			out = append(out, [3]int64{ox, oy, oz})
			return
		}
		half := side >> 1
		for i := 0; i < 8; i++ {
			c := n.Children[i]
			if c == nil {
				continue
			}
			walk(c,
				ox+int64(i&1)*half,
				oy+int64(i>>1&1)*half,
				oz+int64(i>>2&1)*half,
				half)
		}
	}
	walk(t.root, t.ox, t.oy, t.oz, t.side)
	return out
}

// Contains reports whether the unit cell (x, y, z) is occupied.
func (t *DynamicTree) Contains(x, y, z int64) bool {
	if t.root == nil || !t.contains(x, y, z) {
		return false
	}
	n := t.root
	ox, oy, oz := t.ox, t.oy, t.oz
	for side := t.side; side > 1; side >>= 1 {
		half := side >> 1
		o := 0
		if x >= ox+half {
			o |= 1
			ox += half
		}
		if y >= oy+half {
			o |= 2
			oy += half
		}
		if z >= oz+half {
			o |= 4
			oz += half
		}
		if n.Children[o] == nil {
			return false
		}
		n = n.Children[o]
	}
	return true
}
