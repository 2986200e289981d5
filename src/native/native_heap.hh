/**
 * @file
 * Host-memory heap for the native TM backend.
 *
 * The simulated runtime addresses everything through the 64-bit
 * simulated address space; the native backend keeps the same Addr
 * currency (so TxLog, the record geometry, and the workloads are
 * shared verbatim) but resolves addresses into one big host buffer of
 * std::atomic words. Every 8-byte slot is an atomic, which makes the
 * backend TSan-clean by construction: transactional data races are
 * mediated by the record protocol, and the raw accesses themselves
 * are relaxed atomics, never plain loads/stores.
 *
 * The allocator is the same first-fit-with-coalescing discipline as
 * mem/alloc.cc, guarded by a host mutex (allocation is off the
 * transactional fast path: objects at populate time, log chunks on
 * overflow).
 *
 * Storage is built on demand. The constructor only reserves raw,
 * 64-byte-aligned memory; alloc() constructs (zero-initialises) the
 * atomic words up to the allocator's high-water mark, in 1 MB steps,
 * under the allocator mutex and before it hands the block out. A
 * heap sized for the worst case therefore costs set-up time and
 * resident memory only for what is used, and every block still reads
 * zero when first handed out. Under AddressSanitizer the unbuilt tail
 * stays poisoned, so a stray access beyond the high-water mark still
 * trips it.
 */

#ifndef HASTM_NATIVE_NATIVE_HEAP_HH
#define HASTM_NATIVE_NATIVE_HEAP_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "sim/types.hh"
#include "stm/tx_log.hh"

namespace hastm {

/** Word-atomic host heap; also the native TxLog substrate. */
class NativeHeap : public LogMem
{
  public:
    /** Manage @p bytes of host memory (rounded up to 8 bytes). */
    explicit NativeHeap(std::size_t bytes);

    ~NativeHeap() override;
    NativeHeap(const NativeHeap &) = delete;
    NativeHeap &operator=(const NativeHeap &) = delete;

    // ---- word access (Addr is a byte offset, 8-byte aligned) ----

    std::uint64_t
    loadWord(Addr a, std::memory_order mo = std::memory_order_relaxed) const
    {
        return word(a).load(mo);
    }

    void
    storeWord(Addr a, std::uint64_t v,
              std::memory_order mo = std::memory_order_relaxed)
    {
        word(a).store(v, mo);
    }

    /** The atomic slot backing address @p a (record-in-header mode). */
    std::atomic<std::uint64_t> &
    word(Addr a) const
    {
        return words_[a >> 3];
    }

    // ---- allocation ----

    /** Allocate @p size bytes aligned to @p align; panics when full. */
    Addr alloc(std::size_t size, std::size_t align = 16);

    /** Allocate and zero-fill. */
    Addr allocZeroed(std::size_t size, std::size_t align = 16);

    /** Return a block obtained from alloc(). */
    void free(Addr addr);

    std::size_t allocatedBytes() const;
    std::size_t capacityBytes() const { return bytes_; }
    /** Bytes of storage constructed so far (the high-water mark,
     *  rounded up to the build step). */
    std::size_t builtBytes() const;

    // ---- LogMem (TxLog substrate; charges are no-ops) ----

    std::uint64_t load(Addr a) override { return loadWord(a); }
    void store(Addr a, std::uint64_t v) override { storeWord(a, v); }
    std::uint64_t readRaw(Addr a) override { return loadWord(a); }
    void writeRaw(Addr a, std::uint64_t v) override { storeWord(a, v); }
    Addr allocChunk(std::size_t bytes) override { return alloc(bytes, bytes); }
    void freeChunk(Addr a) override { free(a); }
    void charge(unsigned) override {}
    void chargeIlp(unsigned) override {}

  private:
    void insertFree(Addr addr, std::size_t len);
    /** Construct the words below @p end (allocMu_ held). */
    void buildTo(Addr end);

    std::size_t bytes_;
    std::atomic<std::uint64_t> *words_;  //!< raw storage, built lazily

    mutable std::mutex allocMu_;
    std::size_t built_ = 0;  //!< words_[0, built_ / 8) are constructed
    std::map<Addr, std::size_t> freeBlocks_;
    std::map<Addr, std::size_t> sizes_;
    std::size_t allocated_ = 0;
};

} // namespace hastm

#endif // HASTM_NATIVE_NATIVE_HEAP_HH
