package backbone

import (
	"encoding/hex"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// wirePattern returns n bytes i·mul + add.
func wirePattern(n int, mul, add byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*mul + add
	}
	return b
}

// Vectors produced by the backbone codecs: the handshake and envelope
// header ones as they stood in the transport package, the envelope AAD
// and the plaintexts sealed under it as of the AAD label v2. The
// round-trip tests and fuzz targets run the same code at both ends and
// would pass a change that moved bytes on both; these pin the bytes a
// router of another build reads.
const (
	katHelloSigned = "0000001770656163652f6261636b626f6e652d68656c6c6f3a76310000009d000000096d6574726f2d72303000000040" +
		"070a0d101316191c1f2225282b2e3134373a3d404346494c4f5255585b5e6164676a6d707376797c7f8285888b8e9194" +
		"979a9da0a3a6a9acafb2b5b8bbbec1c41797eb92c77900000000004001060b10151a1f24292e33383d42474c51565b60" +
		"656a6f74797e83888d92979ca1a6abb0b5babfc4c9ced3d8dde2e7ecf1f6fb00050a0f14191e23282d32373c00000040" +
		"030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c" +
		"535a61686f767d848b9299a0a7aeb5bc00000010010e1b2835424f5c697683909daab7c417979cfe3d85cd15"
	katHelloWire = "0000009d000000096d6574726f2d72303000000040070a0d101316191c1f2225282b2e3134373a3d404346494c4f5255" +
		"585b5e6164676a6d707376797c7f8285888b8e9194979a9da0a3a6a9acafb2b5b8bbbec1c41797eb92c7790000000000" +
		"4001060b10151a1f24292e33383d42474c51565b60656a6f74797e83888d92979ca1a6abb0b5babfc4c9ced3d8dde2e7" +
		"ecf1f6fb00050a0f14191e23282d32373c00000040030a11181f262d343b424950575e656c737a81888f969da4abb2b9" +
		"c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bc00000010010e1b2835424f" +
		"5c697683909daab7c417979cfe3d85cd150000004705101b26313c47525d68737e89949faab5c0cbd6e1ecf7020d1823" +
		"2e39444f5a65707b86919ca7b2bdc8d3dee9f4ff0a15202b36414c57626d78838e99a4afbac5d0dbe6f1fc07"
	katWelcomeSigned = "0000001970656163652f6261636b626f6e652d77656c636f6d653a76310000009d000000096d6574726f2d7230300000" +
		"0040070a0d101316191c1f2225282b2e3134373a3d404346494c4f5255585b5e6164676a6d707376797c7f8285888b8e" +
		"9194979a9da0a3a6a9acafb2b5b8bbbec1c41797eb92c77900000000004001060b10151a1f24292e33383d42474c5156" +
		"5b60656a6f74797e83888d92979ca1a6abb0b5babfc4c9ced3d8dde2e7ecf1f6fb00050a0f14191e23282d32373c0000" +
		"0040020b141d262f38414a535c656e778089929ba4adb6bfc8d1dae3ecf5fe071019222b343d464f58616a737c858e97" +
		"a0a9b2bbc4cdd6dfe8f1fa030c151e27303900000010010e1b2835424f5c697683909daab7c40000001004172a3d5063" +
		"76899cafc2d5e8fb0e2117979cfeaca332b1"
	katWelcomeWire = "0000009d000000096d6574726f2d72303000000040070a0d101316191c1f2225282b2e3134373a3d404346494c4f5255" +
		"585b5e6164676a6d707376797c7f8285888b8e9194979a9da0a3a6a9acafb2b5b8bbbec1c41797eb92c7790000000000" +
		"4001060b10151a1f24292e33383d42474c51565b60656a6f74797e83888d92979ca1a6abb0b5babfc4c9ced3d8dde2e7" +
		"ecf1f6fb00050a0f14191e23282d32373c00000040020b141d262f38414a535c656e778089929ba4adb6bfc8d1dae3ec" +
		"f5fe071019222b343d464f58616a737c858e97a0a9b2bbc4cdd6dfe8f1fa030c151e27303900000010010e1b2835424f" +
		"5c697683909daab7c40000001004172a3d506376899cafc2d5e8fb0e2117979cfeaca332b100000046091a2b3c4d5e6f" +
		"8091a2b3c4d5e6f708192a3b4c5d6e7f90a1b2c3d4e5f60718293a4b5c6d7e8fa0b1c2d3e4f5061728394a5b6c7d8e9f" +
		"b0c1d2e3f405162738495a6b7c8d9e"
	katEnvelopeAAD  = "0000001570656163652f6261636b626f6e652d6161643a763216000000096d6574726f2d7230310102030405060708"
	katEnvelopeHead = "000000096d6574726f2d723031010203040506070800000080"
	katOwnerAds     = "00000002000000200104070a0d101316191c1f2225282b2e3134373a3d404346494c4f5255585b5e0000002002070c11" +
		"161b20252a2f34393e43484d52575c61666b70757a7f84898e93989d000000096d6574726f2d723031000000096d6574" +
		"726f2d72303017979d008a35e40500000020030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ce" +
		"d5dc000000200000000000000000000000000000000000000000000000000000000000000000000000096d6574726f2d" +
		"7230320000000017979d00c5d0ae00"
	katAcks = "00000002000000200104070a0d101316191c1f2225282b2e3134373a3d404346494c4f5255585b5e00000020030a1118" +
		"1f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dc"
	katGossip = "000000000000002a00000002000000096d6574726f2d72303200000001000000096d6574726f2d72303300000002"
	katRelay  = "000000096d6574726f2d723033000000096d6574726f2d72303008000000002806111c27323d48535e69747f8a95a0ab" +
		"b6c1ccd7e2edf8030e19242f3a45505b66717c87929da8b3"
)

func TestWireKnownAnswers(t *testing.T) {
	check := func(name string, got []byte, want string) {
		t.Helper()
		if g := hex.EncodeToString(got); g != want {
			t.Errorf("%s:\n got %s\nwant %s", name, g, want)
		}
	}

	c := &cert.Certificate{SubjectID: "metro-r00", ExpiresAt: time.Unix(1700086400, 0), Signature: wirePattern(64, 5, 1)}
	copy(c.PublicKey[:], wirePattern(len(c.PublicKey), 3, 7))

	hello := &routerHello{Cert: c, Share: wirePattern(64, 7, 3),
		Timestamp: time.Unix(1700000000, 123456789), Sig: wirePattern(71, 11, 5)}
	copy(hello.Nonce[:], wirePattern(helloNonceSize, 13, 1))
	check("RouterHello.SignedBody", hello.SignedBody(), katHelloSigned)
	check("RouterHello.Marshal", hello.Marshal(), katHelloWire)

	welcome := &routerWelcome{Cert: c, Share: wirePattern(64, 9, 2), Echo: hello.Nonce,
		Timestamp: time.Unix(1700000001, 987654321), Sig: wirePattern(70, 17, 9)}
	copy(welcome.Nonce[:], wirePattern(helloNonceSize, 19, 4))
	check("RouterWelcome.SignedBody", welcome.SignedBody(), katWelcomeSigned)
	check("RouterWelcome.Marshal", welcome.Marshal(), katWelcomeWire)

	const from, seq, ptLen = "metro-r01", uint64(0x0102030405060708), 100
	check("envelope AAD", appendLinkEnvelopeAAD(nil, transport.KindRelay, from, seq), katEnvelopeAAD)
	head := appendLinkEnvelopeHeader(nil, from, seq, ptLen)
	check("envelope header", head, katEnvelopeHead)
	if n := linkEnvelopeLen(from, ptLen); n != len(head)+16+ptLen+12 {
		t.Errorf("LinkEnvelopeLen = %d, header %d + nonce, plaintext and tag", n, len(head))
	}

	ads := []ownerAd{
		{Owner: "metro-r01", PrevRouter: "metro-r00", Expires: time.Unix(1700000010, 5)},
		{Owner: "metro-r02", PrevRouter: "", Expires: time.Unix(1700000011, 0)},
	}
	copy(ads[0].Next[:], wirePattern(len(core.SessionID{}), 3, 1))
	copy(ads[0].Prev[:], wirePattern(len(core.SessionID{}), 5, 2))
	copy(ads[1].Next[:], wirePattern(len(core.SessionID{}), 7, 3))
	check("AppendOwnerAds", appendOwnerAds(nil, ads), katOwnerAds)

	check("appendAcks", appendAcks(nil, ads), katAcks)

	gossip := &gossipBody{BootEpoch: 42,
		Routes: []routeAd{{Router: "metro-r02", Hops: 1}, {Router: "metro-r03", Hops: 2}}}
	check("GossipBody.Marshal", gossip.Marshal(), katGossip)

	check("appendRelay", appendRelay(nil, "metro-r03", "metro-r00", relayData, wirePattern(40, 11, 6)), katRelay)
}
