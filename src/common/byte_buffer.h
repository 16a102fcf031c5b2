/**
 * @file
 * A byte buffer with explicit control over zero-initialization.
 *
 * `std::vector<std::uint8_t>::resize` value-initializes every new byte,
 * and after `clear()` that means re-zeroing the whole plane — which is
 * what made the cheap codecs (identity, base-only) slower per
 * transaction at batch 4096 than at batch 64: the batch path paid a
 * full zero-fill pass before the memcpy that overwrites it anyway.
 *
 * ByteBuffer keeps the vector's contract for resize() (new bytes are
 * zeroed, existing bytes preserved) but adds resizeForOverwrite(),
 * which leaves the bytes unspecified for callers about to overwrite
 * the whole range — the batch kernels' first act is always a plane
 * memcpy or a full rewrite. clear() is O(1) and keeps capacity.
 */

#ifndef BXT_COMMON_BYTE_BUFFER_H
#define BXT_COMMON_BYTE_BUFFER_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

namespace bxt {

class ByteBuffer
{
  public:
    ByteBuffer() = default;

    ByteBuffer(const ByteBuffer &other) { assign(other); }

    ByteBuffer(ByteBuffer &&other) noexcept
        : bytes_(std::move(other.bytes_)), size_(other.size_),
          capacity_(other.capacity_)
    {
        other.size_ = 0;
        other.capacity_ = 0;
    }

    ByteBuffer &operator=(const ByteBuffer &other)
    {
        if (this != &other)
            assign(other);
        return *this;
    }

    ByteBuffer &operator=(ByteBuffer &&other) noexcept
    {
        bytes_ = std::move(other.bytes_);
        size_ = other.size_;
        capacity_ = other.capacity_;
        other.size_ = 0;
        other.capacity_ = 0;
        return *this;
    }

    std::uint8_t *data() { return bytes_.get(); }
    const std::uint8_t *data() const { return bytes_.get(); }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    bool empty() const { return size_ == 0; }

    /** Drop the contents; capacity is kept, no bytes are touched. */
    void clear() { size_ = 0; }

    /** Ensure capacity for @p n bytes (contents preserved). */
    void reserve(std::size_t n)
    {
        if (n > capacity_)
            grow(n, /*preserve=*/size_);
    }

    /**
     * Resize to @p n bytes with the std::vector contract: bytes at
     * [0, min(old, n)) are preserved and bytes at [old, n) are zeroed.
     */
    void resize(std::size_t n)
    {
        const std::size_t old = size_;
        resizeForOverwrite(n);
        if (n > old)
            std::memset(bytes_.get() + old, 0, n - old);
    }

    /**
     * Resize to @p n bytes leaving bytes at [old, n) unspecified; bytes
     * at [0, min(old, n)) are preserved. For callers that immediately
     * overwrite the whole range (plane memcpy / full rewrite).
     */
    void resizeForOverwrite(std::size_t n)
    {
        if (n > capacity_)
            grow(n, /*preserve=*/size_);
        size_ = n;
    }

    /**
     * Grow by @p n unspecified bytes (amortized growth) and return
     * them, for the caller to fill in place.
     */
    std::uint8_t *extendForOverwrite(std::size_t n)
    {
        const std::size_t old = size_;
        if (old + n > capacity_)
            grow(growCapacity(old + n), /*preserve=*/old);
        size_ = old + n;
        return bytes_.get() + old;
    }

    /** Append @p n bytes from @p src (amortized growth). */
    void append(const std::uint8_t *src, std::size_t n)
    {
        if (n != 0)
            std::memcpy(extendForOverwrite(n), src, n);
    }

    bool operator==(const ByteBuffer &other) const
    {
        return size_ == other.size_ &&
               (size_ == 0 ||
                std::memcmp(bytes_.get(), other.bytes_.get(), size_) == 0);
    }

  private:
    void assign(const ByteBuffer &other)
    {
        resizeForOverwrite(other.size_);
        if (other.size_ != 0)
            std::memcpy(bytes_.get(), other.bytes_.get(), other.size_);
    }

    std::size_t growCapacity(std::size_t need) const
    {
        const std::size_t doubled = capacity_ + capacity_;
        return doubled > need ? doubled : need;
    }

    void grow(std::size_t n, std::size_t preserve)
    {
        std::unique_ptr<std::uint8_t[]> next(new std::uint8_t[n]);
        if (preserve != 0)
            std::memcpy(next.get(), bytes_.get(), preserve);
        bytes_ = std::move(next);
        capacity_ = n;
    }

    std::unique_ptr<std::uint8_t[]> bytes_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace bxt

#endif // BXT_COMMON_BYTE_BUFFER_H
