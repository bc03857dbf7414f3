package checkpoint

import "fmt"

// CheckIdentityIndex verifies the ring's pointer index against its blobs:
// every pointer resolves to a retained blob that names it as its checkpoint
// or its alias, and every retained blob is indexed — so no alias outlives its
// blob and none is lost while the blob lives.
func (r *Ring) CheckIdentityIndex() error {
	c := r.cas
	c.mu.Lock()
	defer c.mu.Unlock()
	want := 0
	for h, b := range c.blobs {
		if b.hash != h || c.ptrs[b.cp] != b {
			return fmt.Errorf("blob %s of %s is not indexed by its checkpoint", h, b.cp.NodeName())
		}
		want++
		if b.alias != nil {
			if c.ptrs[b.alias] != b {
				return fmt.Errorf("blob %s of %s is not indexed by its alias", h, b.cp.NodeName())
			}
			want++
		}
	}
	if len(c.ptrs) != want {
		return fmt.Errorf("%d pointers indexed, the %d retained blobs own %d", len(c.ptrs), len(c.blobs), want)
	}
	return nil
}
