package content

import (
	"errors"
	"testing"
	"time"

	"godosn/internal/social/identity"
	"godosn/internal/social/privacy"
)

type fixture struct {
	registry *identity.Registry
	users    map[string]*identity.User
}

func newFixture(t *testing.T, names ...string) *fixture {
	t.Helper()
	f := &fixture{registry: identity.NewRegistry(), users: map[string]*identity.User{}}
	for _, n := range names {
		u, err := identity.NewUser(n)
		if err != nil {
			t.Fatalf("NewUser: %v", err)
		}
		f.registry.Register(u)
		f.users[n] = u
	}
	return f
}

func symGroup(t *testing.T, name string, members ...string) privacy.Group {
	t.Helper()
	g, err := privacy.NewSymmetricGroup(name)
	if err != nil {
		t.Fatalf("NewSymmetricGroup: %v", err)
	}
	for _, m := range members {
		g.Add(m)
	}
	return g
}

func TestProfilePublicField(t *testing.T) {
	f := newFixture(t, "alice", "eve")
	p := NewProfile("alice")
	p.SetPublic("name", []byte("Alice"))
	got, err := p.View(f.users["eve"], "name")
	if err != nil || string(got) != "Alice" {
		t.Fatalf("public view: %q, %v", got, err)
	}
}

func TestProfileRestrictedField(t *testing.T) {
	f := newFixture(t, "alice", "bob", "eve")
	p := NewProfile("alice")
	friends := symGroup(t, "friends", "alice", "bob")
	if err := p.SetRestricted("birthday", []byte("26 October 1990"), friends); err != nil {
		t.Fatalf("SetRestricted: %v", err)
	}
	got, err := p.View(f.users["bob"], "birthday")
	if err != nil || string(got) != "26 October 1990" {
		t.Fatalf("member view: %q, %v", got, err)
	}
	if _, err := p.View(f.users["eve"], "birthday"); err == nil {
		t.Fatal("outsider read restricted field")
	}
}

func TestProfileSubstitutedField(t *testing.T) {
	f := newFixture(t, "alice", "bob", "eve")
	p := NewProfile("alice")
	dict := privacy.NewDictionary()
	sub, err := privacy.NewSubstitutionGroup("close", dict, [][]byte{[]byte("Springfield")})
	if err != nil {
		t.Fatalf("NewSubstitutionGroup: %v", err)
	}
	sub.Add("alice")
	sub.Add("bob")
	if err := p.SetRestricted("city", []byte("Ankara"), sub); err != nil {
		t.Fatalf("SetRestricted: %v", err)
	}
	// Member sees the real value.
	got, err := p.View(f.users["bob"], "city")
	if err != nil || string(got) != "Ankara" {
		t.Fatalf("member view: %q, %v", got, err)
	}
	// Outsider (the provider's view) sees the plausible fake.
	got, err = p.View(f.users["eve"], "city")
	if err != nil || string(got) != "Springfield" {
		t.Fatalf("outsider view: %q, %v", got, err)
	}
}

func TestProfileMissingField(t *testing.T) {
	f := newFixture(t, "alice")
	p := NewProfile("alice")
	if _, err := p.View(f.users["alice"], "nope"); !errors.Is(err, ErrNoSuchField) {
		t.Fatalf("missing field: %v", err)
	}
}

func TestProfileFieldNames(t *testing.T) {
	f := newFixture(t, "alice")
	_ = f
	p := NewProfile("alice")
	p.SetPublic("z", nil)
	p.SetPublic("a", nil)
	names := p.FieldNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "z" {
		t.Fatalf("FieldNames = %v", names)
	}
}

func TestFeedOrdering(t *testing.T) {
	f := newFixture(t, "alice", "bob")
	g := symGroup(t, "g", "alice", "bob")
	t0 := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(author string, seq uint64, at time.Time, body string) Post {
		env, err := g.Encrypt([]byte(body))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		return Post{Author: author, Seq: seq, CreatedAt: at, Envelope: env}
	}
	feed := &Feed{}
	feed.Add(
		mk("bob", 0, t0.Add(2*time.Hour), "third"),
		mk("alice", 1, t0.Add(time.Hour), "second"),
		mk("alice", 0, t0, "first"),
	)
	if feed.Len() != 3 {
		t.Fatalf("Len = %d", feed.Len())
	}
	resolve := func(string) privacy.Group { return g }
	bodies := feed.ReadAll(f.users["alice"], resolve)
	if len(bodies) != 3 || string(bodies[0]) != "first" || string(bodies[2]) != "third" {
		t.Fatalf("ReadAll = %q", bodies)
	}
}

func TestFeedSkipsUnreadable(t *testing.T) {
	f := newFixture(t, "alice", "bob", "eve")
	friends := symGroup(t, "friends", "alice", "bob")
	private := symGroup(t, "private", "alice")
	t0 := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	envF, _ := friends.Encrypt([]byte("for friends"))
	envP, _ := private.Encrypt([]byte("for me only"))
	feed := &Feed{}
	feed.Add(
		Post{Author: "alice", Seq: 0, CreatedAt: t0, Envelope: envF},
		Post{Author: "alice", Seq: 1, CreatedAt: t0.Add(time.Minute), Envelope: envP},
	)
	resolve := func(name string) privacy.Group {
		switch name {
		case "friends":
			return friends
		case "private":
			return private
		}
		return nil
	}
	got := feed.ReadAll(f.users["bob"], resolve)
	if len(got) != 1 || string(got[0]) != "for friends" {
		t.Fatalf("bob read %q", got)
	}
	all := feed.ReadAll(f.users["alice"], resolve)
	if len(all) != 2 {
		t.Fatalf("alice read %d items", len(all))
	}
}
