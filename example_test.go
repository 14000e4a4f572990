package blob_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"blob"
)

// Example demonstrates the paper's primitives through the public facade:
// allocate a blob, write two versions, and read both snapshots back.
func Example() {
	cl, err := blob.Launch(blob.ClusterConfig{DataProviders: 2, MetaProviders: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()
	client, err := cl.NewClient(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	const page = 4 << 10
	b, err := client.CreateBlob(ctx, page, 1<<20)
	if err != nil {
		log.Fatal(err)
	}

	v1, err := b.Write(ctx, bytes.Repeat([]byte{'a'}, page), 0)
	if err != nil {
		log.Fatal(err)
	}
	v2, err := b.Write(ctx, bytes.Repeat([]byte{'b'}, page), 0)
	if err != nil {
		log.Fatal(err)
	}

	buf := make([]byte, page)
	b.Read(ctx, buf, 0, v1)
	fmt.Printf("v%d: %c\n", v1, buf[0])
	b.Read(ctx, buf, 0, v2)
	fmt.Printf("v%d: %c\n", v2, buf[0])
	// Output:
	// v1: a
	// v2: b
}

// ExampleBlob_Append shows serialized appends: concurrent appenders
// never overlap because the version manager resolves offsets.
func ExampleBlob_Append() {
	cl, err := blob.Launch(blob.ClusterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()
	client, _ := cl.NewClient(ctx)
	defer client.Close()

	const page = 4 << 10
	b, _ := client.CreateBlob(ctx, page, 1<<20)
	for i := 0; i < 3; i++ {
		_, off, err := b.Append(ctx, make([]byte, page))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("append %d landed at page %d\n", i, off/page)
	}
	// Output:
	// append 0 landed at page 0
	// append 1 landed at page 1
	// append 2 landed at page 2
}

// ExampleRepairer is the durability story end to end: a two-copy
// write survives a provider crash, the read still succeeds from the
// surviving copies (re-pushing what it can on the way), and one repair
// pass restores full redundancy — the protocol specified in
// docs/erasure.md §5.
func ExampleRepairer() {
	cl, err := blob.Launch(blob.ClusterConfig{
		DataProviders: 3, MetaProviders: 3, Redundancy: blob.Redundancy{K: 1, M: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()
	client, err := cl.NewClient(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	const page = 4 << 10
	b, _ := client.CreateBlob(ctx, page, 1<<20)
	data := bytes.Repeat([]byte{'r'}, 4*page)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote 4 pages x 2 replicas: %d stored\n", cl.TotalDataPages())

	// Crash one provider: a RAM provider relaunches empty, so every
	// replica it held is gone.
	if err := cl.RestartDataProvider(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after crash: redundancy degraded = %v\n", cl.TotalDataPages() < 8)

	// Reads fail over to the surviving replica of each page.
	buf := make([]byte, len(data))
	if _, err := b.Read(ctx, buf, 0, v); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read after crash ok = %v\n", bytes.Equal(buf, data))

	// One repair pass pulls the missing pages back, provider to provider.
	rep, err := blob.NewRepairer(client).RepairBlob(ctx, b.ID())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fully redundant again = %v\n", rep.FullyRedundant() && cl.TotalDataPages() == 8)
	// Output:
	// wrote 4 pages x 2 replicas: 8 stored
	// after crash: redundancy degraded = true
	// read after crash ok = true
	// fully redundant again = true
}

// ExampleNewCollector garbage-collects versions below a horizon.
func ExampleNewCollector() {
	cl, err := blob.Launch(blob.ClusterConfig{CacheNodes: 0})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()
	client, _ := cl.NewClient(ctx)
	defer client.Close()

	const page = 4 << 10
	b, _ := client.CreateBlob(ctx, page, 1<<20)
	b.Write(ctx, make([]byte, page), 0) // v1
	b.Write(ctx, make([]byte, page), 0) // v2 supersedes v1 fully

	rep, err := blob.NewCollector(client).Collect(ctx, b.ID(), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d version(s), freed %d page replica(s)\n",
		rep.VersionsCollected, rep.PagesDeleted)
	// Output:
	// collected 1 version(s), freed 1 page replica(s)
}
