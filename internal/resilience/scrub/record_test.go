package scrub

import (
	"bytes"
	"errors"
	"testing"

	"godosn/internal/resilience"
	"godosn/internal/social/identity"
	"godosn/internal/social/integrity"
)

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 4096)} {
		rec := Seal("key-1", payload)
		got, err := Open("key-1", rec)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %q vs %q", got, payload)
		}
		// The returned payload must be detached from the record.
		if len(got) > 0 {
			got[0] ^= 0xFF
			if again, err := Open("key-1", rec); err != nil || (len(again) > 0 && again[0] == got[0]) {
				t.Fatal("Open aliased the record's bytes")
			}
		}
		if err := Check("key-1", rec); err != nil {
			t.Fatalf("Check: %v", err)
		}
	}
}

func TestOpenDetectsEveryFaultShape(t *testing.T) {
	rec := Seal("key-1", []byte("the payload bytes"))
	cases := map[string][]byte{
		"bit flip in payload":  flip(rec, len(rec)-3),
		"bit flip in checksum": flip(rec, len(recordMagic)+5),
		"bit flip in magic":    flip(rec, 0),
		"truncated":            rec[:len(rec)-4],
		"truncated to framing": rec[:len(recordMagic)+31],
		"empty":                {},
		"garbage":              []byte("not a record at all, clearly"),
	}
	for name, bad := range cases {
		if err := Check("key-1", bad); !errors.Is(err, ErrRecord) {
			t.Fatalf("%s: got %v, want ErrRecord", name, err)
		}
	}
	// Cross-key replay: a perfectly valid record for another key must not
	// verify — the checksum binds the key.
	other := Seal("key-2", []byte("the payload bytes"))
	if err := Check("key-1", other); !errors.Is(err, ErrRecord) {
		t.Fatalf("cross-key replay: got %v, want ErrRecord", err)
	}
	// ErrRecord classifies as corruption for the retry/breaker machinery.
	if f := resilience.Classify(ErrRecord); f != resilience.FaultCorruption {
		t.Fatalf("Classify(ErrRecord) = %v, want FaultCorruption", f)
	}
}

func flip(rec []byte, i int) []byte {
	out := append([]byte(nil), rec...)
	out[i] ^= 0x10
	return out
}

func TestKeyedSealOpenRoundTrip(t *testing.T) {
	master := []byte("deployment master secret")
	alice := OwnerKey(master, "alice")
	bob := OwnerKey(master, "bob")
	if bytes.Equal(alice, bob) {
		t.Fatal("OwnerKey derived identical keys for distinct owners")
	}
	payload := []byte("a non-timeline record body")
	rec := SealKeyed(alice, "key-1", payload)

	// The keyed form is a valid sealed record: the keyless integrity layer
	// accepts it, and plain Open strips the envelope transparently.
	if err := Check("key-1", rec); err != nil {
		t.Fatalf("plain Check rejected a keyed record: %v", err)
	}
	if got, err := Open("key-1", rec); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("plain Open on keyed record: %v (%q)", err, got)
	}
	// The keyed verifier recovers the payload and the authenticity claim.
	if got, err := OpenKeyed(alice, "key-1", rec); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("OpenKeyed: %v (%q)", err, got)
	}
	// Wrong owner key, unkeyed record, and cross-key replay all condemn.
	if _, err := OpenKeyed(bob, "key-1", rec); !errors.Is(err, ErrRecord) {
		t.Fatalf("wrong owner key: got %v, want ErrRecord", err)
	}
	if _, err := OpenKeyed(alice, "key-1", Seal("key-1", payload)); !errors.Is(err, ErrRecord) {
		t.Fatalf("unkeyed record passed OpenKeyed: %v", err)
	}
	if _, err := OpenKeyed(alice, "key-2", rec); !errors.Is(err, ErrRecord) {
		t.Fatalf("cross-key replay: got %v, want ErrRecord", err)
	}
}

func TestKeyedCheckCatchesTamperAndReseal(t *testing.T) {
	mackey := OwnerKey([]byte("master"), "alice")
	rec := SealKeyed(mackey, "key-1", []byte("original content"))
	verify := CheckKeyed(mackey)
	if err := verify("key-1", rec); err != nil {
		t.Fatalf("honest keyed record rejected: %v", err)
	}

	// The adversary tampers with the payload inside the envelope and
	// RE-SEALS the outer checksum — exactly the gap Seal leaves open. The
	// keyless check is fooled; only the MAC catches it.
	outer, err := openOuter("key-1", rec)
	if err != nil {
		t.Fatalf("openOuter: %v", err)
	}
	outer[len(outer)-1] ^= 0x01 // flip a payload byte, keep the old MAC
	forged := Seal("key-1", outer)
	if err := Check("key-1", forged); err != nil {
		t.Fatalf("re-sealed forgery failed the plain checksum (it should pass): %v", err)
	}
	if err := verify("key-1", forged); !errors.Is(err, ErrRecord) {
		t.Fatalf("tamper-and-reseal: got %v, want ErrRecord", err)
	}
	// A wholesale unkeyed replacement is likewise condemned under the gate.
	replaced := Seal("key-1", []byte("attacker's replacement"))
	if err := verify("key-1", replaced); !errors.Is(err, ErrRecord) {
		t.Fatalf("unkeyed replacement: got %v, want ErrRecord", err)
	}
	// And corruption anywhere in the keyed record stays detect-or-fail.
	if err := verify("key-1", flip(rec, len(rec)-2)); !errors.Is(err, ErrRecord) {
		t.Fatalf("bit flip: got %v, want ErrRecord", err)
	}
}

func TestTimelineCheckCatchesForgeryTheChecksumCannot(t *testing.T) {
	reg := identity.NewRegistry()
	alice, err := identity.NewUser("alice")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	if err := reg.Register(alice); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tl := integrity.NewTimeline(alice)
	for i := 0; i < 3; i++ {
		if _, err := tl.Publish([]byte{byte('a' + i)}); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	const key = "timeline/alice"
	rec, err := SealTimeline(key, tl.Entries())
	if err != nil {
		t.Fatalf("SealTimeline: %v", err)
	}
	check := TimelineCheck(reg, func(string) string { return "alice" })
	if err := check(key, rec); err != nil {
		t.Fatalf("honest timeline rejected: %v", err)
	}
	if got, err := OpenTimeline(key, rec); err != nil || len(got) != 3 {
		t.Fatalf("OpenTimeline: %v (%d entries)", err, len(got))
	}

	// The adversary tampers with an entry and RE-SEALS: the unkeyed record
	// checksum verifies, so Check alone is fooled — only the signature
	// chain catches it.
	forged := tl.Entries()
	forged[1].Payload = []byte("forged content")
	badRec, err := SealTimeline(key, forged)
	if err != nil {
		t.Fatalf("SealTimeline: %v", err)
	}
	if err := Check(key, badRec); err != nil {
		t.Fatalf("re-sealed forgery failed the plain checksum (it should pass): %v", err)
	}
	if err := check(key, badRec); !errors.Is(err, ErrRecord) {
		t.Fatalf("forged timeline: got %v, want ErrRecord", err)
	}
	// And a wrong-owner claim fails even with intact entries.
	mallory := TimelineCheck(reg, func(string) string { return "mallory" })
	if err := mallory(key, rec); !errors.Is(err, ErrRecord) {
		t.Fatalf("wrong owner: got %v, want ErrRecord", err)
	}
}

// TestRecordErrorText pins the text of a failed outer verification —
// operators grep logs for it — and that it still wraps ErrRecord and so
// resilience.ErrCorrupt.
func TestRecordErrorText(t *testing.T) {
	key := `tl/"quoted"/7`
	rec := Seal(key, []byte("payload"))
	const prefix = `resilience: read failed integrity verification: invalid sealed record: key "tl/\"quoted\"/7": `
	_, short := Open(key, rec[:10])
	for _, c := range []struct {
		err  error
		want string
	}{
		{short, prefix + "bad framing (10 bytes)"},
		{Check(key, flip(rec, len(rec)-1)), prefix + "checksum mismatch"},
		{Check(key, append([]byte("XXXXXXXX"), rec[8:]...)), prefix + "bad framing (47 bytes)"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("error = %v, want %q", c.err, c.want)
		}
		if !errors.Is(c.err, ErrRecord) || !errors.Is(c.err, resilience.ErrCorrupt) {
			t.Errorf("%v does not wrap ErrRecord and resilience.ErrCorrupt", c.err)
		}
	}
}
