package transport

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/symcrypto"
)

// katReader yields b, b+1, b+2, … — a fixed randomness source for
// known-answer blobs.
type katReader struct{ b byte }

func (r *katReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.b
		r.b++
	}
	return len(p), nil
}

// katPattern returns n bytes i·mul + add.
func katPattern(n int, mul, add byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*mul + add
	}
	return b
}

// Vectors produced by the codecs this package had before tickets, resume
// requests and confirm bodies were encoded in place (one wire.Writer per
// body, crypto/hmac under the request tag). Round-trip tests run the same
// code at both ends and would pass a change that moved bytes on both.
const (
	katTicketPlain = "0000000f70656163652f7469636b65743a7632000000044d522d37000000200205080b0e1114171a1d202326292c2f32" +
		"35383b3e4144474a4d505356595c5f0000002004090e13181d22272c31363b40454a4f54595e63686d72777c81868b90" +
		"959a9f00000000000000030000000000000005000000000000000b17979d89f04f3d150000012c011223344556677889" +
		"9aabbccddeef00112233445566778899aabbccddeeff102132435465768798a9bacbdcedfe0f2031425364758697a8b9" +
		"cadbecfd0e1f30415263748596a7b8c9daebfc0d1e2f405162738495a6b7c8d9eafb0c1d2e3f5061728394a5b6c7d8e9" +
		"fa0b1c2d3e4f60718293a4b5c6d7e8f90a1b2c3d4e5f708192a3b4c5d6e7f8091a2b3c4d5e6f8091a2b3c4d5e6f70819" +
		"2a3b4c5d6e7f90a1b2c3d4e5f60718293a4b5c6d7e8fa0b1c2d3e4f5061728394a5b6c7d8e9fb0c1d2e3f40516273849" +
		"5a6b7c8d9eafc0d1e2f30415263748596a7b8c9daebfd0e1f2031425364758697a8b9cadbecfe0f10213243546576879" +
		"8a9bacbdcedff00112233445566778899aabbccddeef00112233445566778899aabbccddeeff102132435465768798a9" +
		"bacbdc"
	katTicketBlob = "0001020304050607c8c9cacbcccdcecfd0d1d2d37a98c0737d8f3b5c8ac81fc7b284553cd750babb4ef166fb8129fc33" +
		"24296e05ac49d62cfa5efab2708f58548318cb90b65a3d83e3a30c2a60473dc1732b71aafde24c1f7a623fc3382741e1" +
		"1d63dbda0fc0ff5e8b388db8f9127ef1990ddb593c4e2f43b44e712e3b60e831d0f81ea3363357af4f234d830067cd05" +
		"4bcfec11181e43ebef2e6a2f6c76e98322513039fa29c5b155e9ffca0d1afa0392bb24048b5f01a8b45e55d53bc574f9" +
		"a1f6a65aa4e217583ed61d63e9364f08196e4acd13d9978eb4bdb32a9938a10fb3046b53d81b0610259a1eacfcac9e17" +
		"d1b58b2afbc03612e9a5a6a6e465db244ca61e186e7dec045710d3f48d1394df3952a6a0cce7bca6812b23217a59174b" +
		"2eb895b354eeb5ab2adbb3f29f4a6e1055729e0850edb8172c992bced76a8c56e36ac06f3aa0da0b7a0a262d94ed64a9" +
		"16d0a8232d9aeaf623fe82f8588201557699f2043c78f743c713f848847b404cb1402fdd17bcdf01b4468ce3d07720d3" +
		"745da5dc5b76bac1d23f8a883d609ed5875de53ed6a2fedaf45177c103ce2579f6f5e4183fbfb5b75734245d4f196c46" +
		"fbe3acbe8ce80460695527059f8da7aee2a7808332daa5487da0a9a9c67af6786aef1f09a09c0a"
	katReqTag      = "160dd56810f4b54b512b70ec56bc0f09cb4b0ffc6bfcadbd7b7414c5f641d6ff"
	katReqTagSol   = "45583c9d7233ec85cee1daf221016ef6500fefa1404f4bfc09b072d2ccebe5ce"
	katReqFrameSol = "5045414301100000022d000001d70001020304050607c8c9cacbcccdcecfd0d1d2d37a98c0737d8f3b5c8ac81fc7b284" +
		"553cd750babb4ef166fb8129fc3324296e05ac49d62cfa5efab2708f58548318cb90b65a3d83e3a30c2a60473dc1732b" +
		"71aafde24c1f7a623fc3382741e11d63dbda0fc0ff5e8b388db8f9127ef1990ddb593c4e2f43b44e712e3b60e831d0f8" +
		"1ea3363357af4f234d830067cd054bcfec11181e43ebef2e6a2f6c76e98322513039fa29c5b155e9ffca0d1afa0392bb" +
		"24048b5f01a8b45e55d53bc574f9a1f6a65aa4e217583ed61d63e9364f08196e4acd13d9978eb4bdb32a9938a10fb304" +
		"6b53d81b0610259a1eacfcac9e17d1b58b2afbc03612e9a5a6a6e465db244ca61e186e7dec045710d3f48d1394df3952" +
		"a6a0cce7bca6812b23217a59174b2eb895b354eeb5ab2adbb3f29f4a6e1055729e0850edb8172c992bced76a8c56e36a" +
		"c06f3aa0da0b7a0a262d94ed64a916d0a8232d9aeaf623fe82f8588201557699f2043c78f743c713f848847b404cb140" +
		"2fdd17bcdf01b4468ce3d07720d3745da5dc5b76bac1d23f8a883d609ed5875de53ed6a2fedaf45177c103ce2579f6f5" +
		"e4183fbfb5b75734245d4f196c46fbe3acbe8ce80460695527059f8da7aee2a7808332daa5487da0a9a9c67af6786aef" +
		"1f09a09c0a00000010404346494c4f5255585b5e6164676a6d17979cfe362a002a0000002045583c9d7233ec85cee1da" +
		"f221016ef6500fefa1404f4bfc09b072d2ccebe5ce0100000000deadbeef17979cfbe21e1c0709"
	katResumeOK = "0000001270656163652f726573756d652d6f6b3a7631000000044d522d37000000000000000b00000010404346494c4f" +
		"5255585b5e6164676a6d00000078070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7ee" +
		"f5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e" +
		"454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a4148"
)

func TestResumeKnownAnswers(t *testing.T) {
	check := func(name string, got []byte, want string) {
		t.Helper()
		if g := hex.EncodeToString(got); g != want {
			t.Errorf("%s:\n got %s\nwant %s", name, g, want)
		}
	}

	ring, err := symcrypto.NewTicketKeyRing(&katReader{})
	if err != nil {
		t.Fatal(err)
	}
	tk := &Ticket{Router: "MR-7", URLEpoch: 3, CRLEpoch: 5, BootEpoch: 11,
		Expiry: time.Unix(1700000600, 123456789), Escrow: katPattern(300, 17, 1)}
	copy(tk.Secret[:], katPattern(32, 3, 2))
	copy(tk.Prev[:], katPattern(32, 5, 4))
	check("Ticket.Marshal", tk.Marshal(), katTicketPlain)
	blob, err := tk.Seal(&katReader{b: 200}, ring)
	if err != nil {
		t.Fatal(err)
	}
	check("Ticket.Seal", blob, katTicketBlob)
	back, err := OpenTicket(blob, ring)
	if err != nil {
		t.Fatal(err)
	}
	if back.Router != tk.Router || back.Secret != tk.Secret || back.Prev != tk.Prev ||
		back.URLEpoch != 3 || back.CRLEpoch != 5 || back.BootEpoch != 11 ||
		!back.Expiry.Equal(tk.Expiry) || !bytes.Equal(back.Escrow, tk.Escrow) {
		t.Errorf("OpenTicket gave back %+v", back)
	}

	req := &ResumeRequest{Ticket: blob, Timestamp: time.Unix(1700000000, 42)}
	copy(req.Nonce[:], katPattern(16, 3, 0x40))
	secret := katPattern(32, 3, 2)
	req.sign(secret)
	check("request tag", req.Tag[:], katReqTag)
	req.HasSolution, req.Solution, req.PuzzleIssuedAt, req.PuzzleDifficulty = true, 0xdeadbeef, time.Unix(1699999990, 7), 9
	req.sign(secret)
	check("request tag with a solution", req.Tag[:], katReqTagSol)
	frame, err := EncodeMessage(req)
	if err != nil {
		t.Fatal(err)
	}
	check("request frame", frame, katReqFrameSol)
	if err := req.verify(secret); err != nil {
		t.Errorf("request tag does not verify: %v", err)
	}

	body := &resumeOK{RouterID: "MR-7", BootEpoch: 11, Ticket: katPattern(120, 7, 7)}
	copy(body.Nonce[:], katPattern(16, 3, 0x40))
	check("resume body", body.appendTo(nil), katResumeOK)
	if n := len(body.appendTo(nil)); n != body.marshaledLen() {
		t.Errorf("resume body is %d bytes, marshaledLen %d", n, body.marshaledLen())
	}

	// The confirm sealed in place is the frame EncodeMessage builds around
	// the same ciphertext, and it opens at sequence 0 to exactly the body.
	cn, sn := katPattern(16, 3, 0x40), [ResumeNonceSize]byte{1, 2, 3}
	server := core.ResumeSession(tk.Prev, secret, cn, sn[:], "user", time.Unix(1700000000, 0))
	client := core.ResumeSession(tk.Prev, secret, cn, sn[:], "router", time.Unix(1700000000, 0))
	dedup := resumeDedupID(blob, cn)
	confirmFrame, err := encodeResumeConfirm(server, dedup, &sn, body)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := DecodeFrame(confirmFrame)
	if err != nil || kind != KindResumeConfirm {
		t.Fatalf("confirm frame: %v %v", kind, err)
	}
	m, err := UnmarshalResumeConfirm(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dedup != dedup || m.Nonce != sn {
		t.Error("confirm frame carries the wrong dedup or nonce")
	}
	if want, err := EncodeMessage(m); err != nil || !bytes.Equal(confirmFrame, want) {
		t.Errorf("confirm frame differs from EncodeMessage's: %v", err)
	}
	pt, err := client.OpenData(&core.DataFrame{Session: client.ID, Encrypted: true, Payload: m.Ciphertext})
	if err != nil {
		t.Fatal(err)
	}
	check("confirm plaintext", pt, katResumeOK)
}
