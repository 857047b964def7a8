/**
 * @file
 * Stream encryption for DWRF streams.
 *
 * Production streams are encrypted at rest; decryption is part of the
 * paper's "extraction" cost. We model AES-CTR with a keyed xoshiro
 * keystream XOR — structurally identical (seekable counter-mode
 * stream cipher, encrypt == decrypt) and with a measurable per-byte
 * cost, but NOT cryptographically secure. Do not reuse for security.
 */

#ifndef DSI_DWRF_CIPHER_H
#define DSI_DWRF_CIPHER_H

#include <cstdint>
#include <span>

namespace dsi::dwrf {

/** Counter-mode stream cipher (simulation-grade, not secure). */
class StreamCipher
{
  public:
    explicit StreamCipher(uint64_t key) : key_(key) {}

    /**
     * XOR `data` in place with the keystream for (key, nonce), one
     * 64-bit keystream word per 8 bytes (byte i takes bits 8*(i%8) up
     * of word i/8). Calling twice with the same nonce restores the
     * original bytes.
     */
    void apply(uint64_t nonce, std::span<uint8_t> data) const;

    uint64_t key() const { return key_; }

  private:
    uint64_t key_;
};

} // namespace dsi::dwrf

#endif // DSI_DWRF_CIPHER_H
