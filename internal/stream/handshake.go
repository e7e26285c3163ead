package stream

import (
	"errors"
	"fmt"
	"io"
)

// writeHello sends the client hello.
func writeHello(w io.Writer, codec string) error {
	if len(codec) == 0 || len(codec) > maxCodecName {
		return fmt.Errorf("%w: codec name %q", ErrUnknownCodec, codec)
	}
	buf := make([]byte, 0, len(magic)+2+len(codec))
	buf = append(buf, magic[:]...)
	buf = append(buf, Version, byte(len(codec)))
	buf = append(buf, codec...)
	_, err := w.Write(buf)
	return err
}

// readHello parses a client hello. Fault mapping (the server's half of
// the handshake-fault matrix):
//
//	short read / EOF        → ErrTruncatedHello
//	wrong magic             → ErrBadMagic
//	version != Version      → ErrVersionSkew
//	absurd codec length     → ErrUnknownCodec
func readHello(r io.Reader) (codec string, err error) {
	var fixed [len(magic) + 2]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return "", fmt.Errorf("%w: %v", ErrTruncatedHello, err)
	}
	if [4]byte(fixed[:4]) != magic {
		return "", ErrBadMagic
	}
	if fixed[4] != Version {
		return "", fmt.Errorf("%w: peer speaks v%d, this end v%d", ErrVersionSkew, fixed[4], Version)
	}
	n := int(fixed[5])
	if n == 0 || n > maxCodecName {
		return "", fmt.Errorf("%w: codec name length %d", ErrUnknownCodec, n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", fmt.Errorf("%w: %v", ErrTruncatedHello, err)
	}
	return string(name), nil
}

// writeReply sends the server reply: status 0 echoes the accepted
// codec, nonzero rejects with an empty codec field.
func writeReply(w io.Writer, status byte, codec string) error {
	if status != statusOK {
		codec = ""
	}
	buf := make([]byte, 0, len(magic)+3+len(codec))
	buf = append(buf, magic[:]...)
	buf = append(buf, Version, status, byte(len(codec)))
	buf = append(buf, codec...)
	_, err := w.Write(buf)
	return err
}

// readReply parses the server reply on the client side and maps reject
// statuses to the same typed errors the server saw.
func readReply(r io.Reader, wantCodec string) error {
	var fixed [len(magic) + 3]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrTruncatedHello, err)
	}
	if [4]byte(fixed[:4]) != magic {
		return ErrBadMagic
	}
	if fixed[4] != Version {
		return fmt.Errorf("%w: server speaks v%d, this end v%d", ErrVersionSkew, fixed[4], Version)
	}
	status, n := fixed[5], int(fixed[6])
	switch status {
	case statusOK:
	case statusUnknownCodec:
		return fmt.Errorf("%w: server rejected codec %q", ErrUnknownCodec, wantCodec)
	case statusVersionSkew:
		return ErrVersionSkew
	default:
		return fmt.Errorf("%w: status %d", ErrRejected, status)
	}
	if n > maxCodecName {
		return fmt.Errorf("%w: echoed codec length %d", ErrRejected, n)
	}
	echo := make([]byte, n)
	if _, err := io.ReadFull(r, echo); err != nil {
		return fmt.Errorf("%w: %v", ErrTruncatedHello, err)
	}
	if string(echo) != wantCodec {
		return fmt.Errorf("%w: server accepted %q, asked for %q", ErrRejected, string(echo), wantCodec)
	}
	return nil
}

// serverHandshake runs the accept side over nc: read the hello,
// validate the codec against allowed (nil = the full registry), reply.
// On failure the typed error is returned after a best-effort reject
// reply; the caller closes nc.
func serverHandshake(rw io.ReadWriter, allowed func(string) bool) (string, error) {
	codec, err := readHello(rw)
	if err != nil {
		status := byte(statusUnknownCodec)
		if errors.Is(err, ErrVersionSkew) {
			status = statusVersionSkew
		}
		// The hello never parsed; the peer may be gone or not speaking
		// this protocol at all, so the reject reply is best-effort.
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncatedHello) {
			_ = writeReply(rw, status, "")
		}
		return "", err
	}
	// statePools holds a pool for every registry codec, so the lookup
	// validates the name without building a codec to throw away.
	ok := (allowed == nil || allowed(codec)) && statePools[codec] != nil
	if !ok {
		_ = writeReply(rw, statusUnknownCodec, "")
		return "", fmt.Errorf("%w: %q", ErrUnknownCodec, codec)
	}
	if err := writeReply(rw, statusOK, codec); err != nil {
		return "", err
	}
	return codec, nil
}
