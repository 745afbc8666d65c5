package stream

// Layered multi-rate serving: the wire framing of FlagLayered packets and
// ControlLayers. The latch, full-subscription identity, the subscription
// sweep and subscription churn are rows of the scenario table.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/codec"
)

func layeredTestOptions(tiles int) codec.Options {
	o := testOptions(codec.IntraInterV1)
	o.Tiles = tiles
	o.Layers = 3
	return o
}

func TestPacketLayeredHeader(t *testing.T) {
	payload := []byte("layer payload")
	h := PacketHeader{
		Flags: FlagLayered, StreamID: 9, FrameIndex: 3, FrameType: codec.IFrame,
		Frag: 1, FragCount: 4, Seq: 77, Layer: 2,
	}
	pkt := MarshalPacket(h, payload)
	if len(pkt) != PacketHeaderSize+LayerIDSize+len(payload) {
		t.Fatalf("layered packet is %d bytes, want %d", len(pkt), PacketHeaderSize+LayerIDSize+len(payload))
	}
	got, err := ParsePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != h || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("round-trip mismatch: %+v", got.Header)
	}
	// A tiled AND layered packet carries both ids, tile first.
	h.Flags = FlagTiled | FlagLayered
	h.Tile, h.Layer = 5, 1
	pkt = MarshalPacket(h, payload)
	if len(pkt) != PacketHeaderSize+TileIDSize+LayerIDSize+len(payload) {
		t.Fatalf("tiled+layered packet is %d bytes, want %d",
			len(pkt), PacketHeaderSize+TileIDSize+LayerIDSize+len(payload))
	}
	if got, err = ParsePacket(pkt); err != nil || got.Header != h {
		t.Fatalf("tiled+layered round-trip: %+v, %v", got.Header, err)
	}
	// LayerNone round-trips (header fragments).
	h.Layer = LayerNone
	if got, err = ParsePacket(MarshalPacket(h, payload)); err != nil || got.Header.Layer != LayerNone {
		t.Fatalf("LayerNone round-trip: %+v, %v", got.Header, err)
	}
	// An unlayered packet spends no bytes on the layer id.
	h.Flags, h.Tile, h.Layer = 0, 0, 0
	if pkt = MarshalPacket(h, payload); len(pkt) != PacketHeaderSize+len(payload) {
		t.Fatalf("unlayered packet is %d bytes, want %d", len(pkt), PacketHeaderSize+len(payload))
	}
	// A layered packet truncated inside its layer id is structurally bad.
	h.Flags = FlagTiled | FlagLayered
	pkt = MarshalPacket(h, nil)
	if _, err := ParsePacket(pkt[:PacketHeaderSize+TileIDSize]); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("truncated layered packet: %v, want ErrBadPacket", err)
	}
}

func TestControlLayersRoundTrip(t *testing.T) {
	for _, sub := range []uint8{0, 1, 3, 255} {
		want := Control{Kind: ControlLayers, StreamID: 12, Layers: sub}
		pkt, err := ParsePacket(MarshalControl(want))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseControl(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != ControlLayers || got.StreamID != want.StreamID || got.Layers != sub {
			t.Fatalf("round-trip mismatch: %+v", got)
		}
	}
	// Anything but exactly one payload byte is malformed.
	for _, payload := range [][]byte{nil, {1, 2}} {
		pkt, err := ParsePacket(MarshalPacket(PacketHeader{
			Flags: FlagControl, FrameType: codec.FrameType(ControlLayers), FragCount: 1,
		}, payload))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseControl(pkt); !errors.Is(err, ErrBadPacket) {
			t.Fatalf("layers payload %d bytes parsed: %v", len(payload), err)
		}
	}

	// Receiver.SendLayers sets and clears a viewer's subscription in-band:
	// the "in-band layers" row.
	runScenarios(t)
}
