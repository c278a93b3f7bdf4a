/**
 * @file
 * FLEXOS_ASAN is defined when AddressSanitizer instruments the build,
 * under GCC (__SANITIZE_ADDRESS__) or Clang (__has_feature). Code that
 * annotates memory or fiber stacks for ASan compiles those annotations
 * only under it.
 */

#ifndef FLEXOS_BASE_ASAN_HH
#define FLEXOS_BASE_ASAN_HH

#if defined(__SANITIZE_ADDRESS__)
#define FLEXOS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLEXOS_ASAN 1
#endif
#endif

#endif // FLEXOS_BASE_ASAN_HH
