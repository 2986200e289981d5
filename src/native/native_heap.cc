#include "native/native_heap.hh"

#include <algorithm>
#include <new>

#include "sim/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define HASTM_HEAP_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define HASTM_HEAP_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define HASTM_HEAP_POISON(p, n) ((void)(p), (void)(n))
#define HASTM_HEAP_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace hastm {

namespace {

// Address 0 stays the null address and the first line is never
// handed out, matching the simulated arena's convention.
constexpr Addr kHeapBase = 64;

// Storage is constructed in steps of this many bytes.
constexpr std::size_t kBuildStep = 1 << 20;

constexpr std::align_val_t kAlign{64};

} // namespace

NativeHeap::NativeHeap(std::size_t bytes)
    : bytes_((bytes + 7) & ~std::size_t(7)),
      words_(static_cast<std::atomic<std::uint64_t> *>(
          ::operator new(bytes_, kAlign)))
{
    HASTM_ASSERT(bytes_ > kHeapBase);
    HASTM_HEAP_POISON(words_, bytes_);
    freeBlocks_.emplace(kHeapBase, bytes_ - kHeapBase);
}

NativeHeap::~NativeHeap()
{
    // The words are trivially destructible; only the storage goes.
    HASTM_HEAP_UNPOISON(words_, bytes_);
    ::operator delete(words_, kAlign);
}

void
NativeHeap::buildTo(Addr end)
{
    if (end <= built_)
        return;
    std::size_t to = std::min(bytes_, (std::size_t(end) + kBuildStep - 1) /
                                          kBuildStep * kBuildStep);
    HASTM_HEAP_UNPOISON(words_ + built_ / 8, to - built_);
    for (std::size_t i = built_ / 8; i < to / 8; ++i)
        new (&words_[i]) std::atomic<std::uint64_t>(0);
    built_ = to;
}

std::size_t
NativeHeap::builtBytes() const
{
    std::lock_guard<std::mutex> lk(allocMu_);
    return built_;
}

Addr
NativeHeap::alloc(std::size_t size, std::size_t align)
{
    HASTM_ASSERT(size > 0 && align > 0 && (align & (align - 1)) == 0);
    size = (size + 7) & ~std::size_t(7);
    std::lock_guard<std::mutex> lk(allocMu_);
    for (auto it = freeBlocks_.begin(); it != freeBlocks_.end(); ++it) {
        Addr start = it->first;
        std::size_t len = it->second;
        Addr aligned = (start + align - 1) & ~(Addr(align) - 1);
        std::size_t pad = aligned - start;
        if (len < pad + size)
            continue;
        freeBlocks_.erase(it);
        if (pad > 0)
            insertFree(start, pad);
        if (len > pad + size)
            insertFree(aligned + size, len - pad - size);
        sizes_.emplace(aligned, size);
        allocated_ += size;
        buildTo(aligned + size);
        return aligned;
    }
    panic("native heap exhausted: request %zu bytes, %zu allocated",
          size, allocated_);
}

Addr
NativeHeap::allocZeroed(std::size_t size, std::size_t align)
{
    Addr a = alloc(size, align);
    for (Addr p = a; p < a + ((size + 7) & ~std::size_t(7)); p += 8)
        storeWord(p, 0);
    return a;
}

void
NativeHeap::free(Addr addr)
{
    std::lock_guard<std::mutex> lk(allocMu_);
    auto it = sizes_.find(addr);
    if (it == sizes_.end())
        panic("native free of unallocated address %#llx",
              static_cast<unsigned long long>(addr));
    std::size_t size = it->second;
    sizes_.erase(it);
    allocated_ -= size;
    insertFree(addr, size);
}

std::size_t
NativeHeap::allocatedBytes() const
{
    std::lock_guard<std::mutex> lk(allocMu_);
    return allocated_;
}

void
NativeHeap::insertFree(Addr addr, std::size_t len)
{
    auto [it, ok] = freeBlocks_.emplace(addr, len);
    HASTM_ASSERT(ok);
    auto next = std::next(it);
    if (next != freeBlocks_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        freeBlocks_.erase(next);
    }
    if (it != freeBlocks_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            freeBlocks_.erase(it);
        }
    }
}

} // namespace hastm
