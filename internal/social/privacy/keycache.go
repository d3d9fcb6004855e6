package privacy

import (
	"crypto/sha256"
	"encoding/hex"

	"godosn/internal/cache"
	"godosn/internal/telemetry"
)

// envelopeKeyCache is the optional per-reader envelope-key cache embedded by
// the schemes with a two-phase decrypt (hybrid, IBBE, ABE). It memoizes the
// result of the expensive public-key phase — the unwrapped per-epoch data
// key (hybrid), the unwrapped session key (IBBE), or the recovered payload
// key (ABE) — so repeat reads pay only the symmetric phase.
//
// Coherence contract: membership (and, where applicable, epoch) checks run
// BEFORE any cache consult, and Remove bumps the cache generation, so a
// revoked member's warm cache can never open post-revocation content and a
// rekey never serves a key from a previous epoch. Cache keys additionally
// embed the reader name plus either the key epoch or a content tag of the
// ciphertext, so distinct readers and distinct envelopes never collide.
type envelopeKeyCache struct {
	keyCache *cache.Cache[[]byte]
}

// SetKeyCache installs (or, with a zero-capacity config, removes) the
// envelope-key cache. The zero value of cache.Config disables caching and
// preserves the exact uncached decrypt behavior.
func (c *envelopeKeyCache) SetKeyCache(cfg cache.Config) {
	c.keyCache = cache.New[[]byte](cfg)
}

// KeyCacheStats returns the cache's counters (zero when disabled).
func (c *envelopeKeyCache) KeyCacheStats() cache.Stats {
	return c.keyCache.Stats()
}

// SetKeyCacheTelemetry mirrors the cache's counters into a telemetry
// registry under the given prefix (e.g. "privacy_hybrid_key_cache").
func (c *envelopeKeyCache) SetKeyCacheTelemetry(reg *telemetry.Registry, prefix string) {
	c.keyCache.SetTelemetry(reg, prefix)
}

// contentTag returns a short content address (sha256 prefix) used to key
// cached session keys to one specific ciphertext.
func contentTag(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
