package dht

// Microbenchmarks for the DHT hot path: Put (Store) and Get (Lookup) on a
// lossless simulated network, at serial replica contact and at concurrent
// fan-out (FanoutWorkers = ReplicationFactor).

import (
	"fmt"
	"testing"

	"godosn/internal/overlay/simnet"
)

const (
	benchNodes    = 64
	benchReplicas = 3
	benchPreload  = 256
)

func newBenchDHT(b *testing.B, fanout int) (*DHT, []simnet.NodeID) {
	b.Helper()
	net := simnet.New(simnet.DefaultConfig(4242))
	names := make([]simnet.NodeID, benchNodes)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: benchReplicas, FanoutWorkers: fanout})
	if err != nil {
		b.Fatal(err)
	}
	return d, names
}

func benchFanouts() map[string]int {
	return map[string]int{"serial": 1, "fanout": benchReplicas}
}

func BenchmarkDHTPut(b *testing.B) {
	for label, fanout := range benchFanouts() {
		b.Run(label, func(b *testing.B) {
			d, names := newBenchDHT(b, fanout)
			client := string(names[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Store(client, fmt.Sprintf("k%d", i), []byte("benchmark value payload")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDHTGet(b *testing.B) {
	for label, fanout := range benchFanouts() {
		b.Run(label, func(b *testing.B) {
			d, names := newBenchDHT(b, fanout)
			client := string(names[0])
			for i := 0; i < benchPreload; i++ {
				if _, err := d.Store(client, fmt.Sprintf("k%d", i), []byte("benchmark value payload")); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.Lookup(client, fmt.Sprintf("k%d", i%benchPreload)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// digestBatchSetup builds a 48-node DHT holding 32 keys and splits them into
// the 8 four-key groups one replica is asked to digest.
func digestBatchSetup(tb testing.TB) (d *DHT, names []simnet.NodeID, replica string, groups [][]string) {
	tb.Helper()
	net := simnet.New(simnet.DefaultConfig(4242))
	names = make([]simnet.NodeID, 48)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: benchReplicas})
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, 32)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("digest-key-%03d", i)
		vals[i] = []byte(fmt.Sprintf("a sealed record body of moderate length, number %03d", i))
	}
	if _, _, err := d.PutBatch(string(names[0]), keys, vals); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < len(keys); i += 4 {
		groups = append(groups, keys[i:i+4])
	}
	return d, names, d.PlanReplicas(keys[0])[0], groups
}

// BenchmarkDigestBatchFrom measures one warm multi-group digest RPC: 8
// groups of 4 keys, every copy rehashed on the replica.
func BenchmarkDigestBatchFrom(b *testing.B) {
	d, names, replica, groups := digestBatchSetup(b)
	client := string(names[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.DigestBatchFrom(client, groups, uint64(i), replica); err != nil {
			b.Fatal(err)
		}
	}
}
