package core

import (
	"crypto/sha256"
	"time"

	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/wire"
)

// ResumeSecretSize is the length of a session resumption secret.
const ResumeSecretSize = 32

// ResumptionSecret derives the resumption master secret of an established
// session. Both endpoints compute the same value from the session keys, so
// the server can seal it into a self-certifying ticket while the client
// re-derives it locally — the secret itself never travels in the clear.
// Knowing the secret proves the holder completed (or resumed) the original
// AKA run; it is the symmetric stand-in for the group signature on the
// re-attach path.
func (s *Session) ResumptionSecret() []byte {
	// Enc and Mac as two wire byte fields, encoded on the stack.
	var buf [2 * (4 + symcrypto.KeySize)]byte
	enc := wire.AppendBytesField(buf[:0], s.keys.Enc[:])
	out := symcrypto.DeriveKey(wire.AppendBytesField(enc, s.keys.Mac[:]), "peace/resume-secret:v1")
	return out[:ResumeSecretSize]
}

// ResumeSessionID derives the identifier of a resumed session from the
// predecessor's identifier and both endpoints' nonces, so every resume run
// yields a distinct session and a replayed confirm cannot be cross-wired.
func ResumeSessionID(prev SessionID, clientNonce, serverNonce []byte) SessionID {
	h := sha256.New()
	h.Write([]byte("peace/resume-id:v1"))
	h.Write(prev[:])
	h.Write(clientNonce)
	h.Write(serverNonce)
	var id SessionID
	h.Sum(id[:0])
	return id
}

// resumeTranscriptLabel versions the resumed session's key transcript.
const resumeTranscriptLabel = "peace/resume-transcript:v1"

// ResumeSession derives a fresh session from a resumption secret and the
// two nonces of one resume exchange. Both endpoints call this with the
// same inputs and obtain identical keys; the transcript binds the keys to
// the predecessor session and both nonces, so neither side can be replayed
// into a key it did not negotiate.
func ResumeSession(prev SessionID, secret, clientNonce, serverNonce []byte, peer string, now time.Time) *Session {
	id := ResumeSessionID(prev, clientNonce, serverNonce)
	// The transcript is four wire byte fields; it fits the stack buffer
	// for nonces of up to 16 bytes and grows onto the heap past that.
	var buf [4*4 + len(resumeTranscriptLabel) + len(SessionID{}) + 2*16]byte
	w := wire.AppendStringField(buf[:0], resumeTranscriptLabel)
	w = wire.AppendBytesField(w, prev[:])
	w = wire.AppendBytesField(w, clientNonce)
	w = wire.AppendBytesField(w, serverNonce)
	return newSession(id, peer, secret, w, now)
}

// AdoptSession installs a session the transport established out of band
// (ticket resumption) into the user's session table, mirroring what
// HandleAccessConfirm does for a full AKA run.
func (u *User) AdoptSession(sess *Session) {
	u.mu.Lock()
	u.sessions[sess.ID] = sess
	u.mu.Unlock()
}

// AdoptResumedSession installs a ticket-resumed session and re-attaches
// its accountability escrow: the original M.2's encoding carried inside
// the ticket goes back into the network log file, so a session resumed
// across a restart stays exactly as auditable as one established by a
// full AKA run (paper audit Step 1 still finds its M.2). The log keeps
// escrow itself: the caller validates it first (CheckAccessRequest) and
// hands over a slice nothing else writes.
func (r *MeshRouter) AdoptResumedSession(sess *Session, escrow []byte) {
	r.sessions.put(sess.ID, sess)
	if escrow != nil {
		r.sessionLog.put(sess.ID, escrow)
	}
	r.stats.sessionsResumed.Add(1)
}
