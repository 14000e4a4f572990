package mstore

import (
	"blob/internal/dht"
	"blob/internal/meta"
)

// NewProvider creates the store a metadata provider serves: a dht.Store
// with FollowBlock installed, so every block it serves carries the
// blocks below it that the reader's range leads to.
func NewProvider() *dht.Store {
	st := dht.NewStore()
	st.Follow = FollowBlock
	return st
}

// FollowBlock is the server half of the descent: the dht.Store follow
// hook NewProvider installs. Given a stored block and the page range a
// reader is resolving, it names the dht keys of the blocks that reader
// will need next — the children, in another block, of the block's
// nodes that the range crosses. The store serves those it holds
// and follows them in turn, and since the blocks of one region share a
// provider (meta.BlockKey.Hash), the whole remainder of a path below the
// region's top usually leaves in the response that served its first
// block.
//
// A block's nodes form one connected subtree (a version that writes a
// node writes its ancestors), so every node the range crosses is on a
// path the reader may walk and a flat scan finds them all
// (meta.AppendBlocksBelow, which checks the body as meta.DecodeBlock
// does but decodes no node: this runs on every block a provider
// serves). The reader may have entered the block below its top, along a
// newer version's path; for a range wider than one page the scan can
// then name blocks that reader reaches through other versions. That
// costs bytes under the store's caps and nothing else: the reader
// decodes only what its own walk derives (descent.bodies). A block that
// does not decode names nothing.
func FollowBlock(dst []uint64, body []byte, first, count uint64) []uint64 {
	return meta.AppendBlocksBelow(dst, body, meta.PageRange{First: first, Count: count})
}
