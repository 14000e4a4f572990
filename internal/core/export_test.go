package core

import "blob/internal/meta"

// PublishedWatermark exposes the handle's published watermark to tests.
func (b *Blob) PublishedWatermark() meta.Version { return b.published.Load() }
