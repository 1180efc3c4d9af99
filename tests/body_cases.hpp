#pragma once
// The kernel bodies (portable, AVX2, AVX-512) for test_kernels, test_gnn and
// bench_kernels: for_each_body runs a check once per body, with the body
// pinned through kernels::detail::ScopedBody.

#include <cstdio>

#include "gnn/kernels.hpp"

namespace moment::gnn::reference {

/// Calls fn(name) once per body this CPU has, with that body pinned on the
/// calling thread; prints a skip line for a body the CPU lacks (its pin would
/// only rerun a fallback).
template <typename Fn>
void for_each_body(Fn&& fn) {
  using kernels::detail::Body;
  const struct {
    Body body;
    const char* name;
    bool supported;
  } cases[] = {{Body::kPortable, "portable", true},
               {Body::kAvx2, "avx2", kernels::detail::avx2_supported()},
               {Body::kAvx512, "avx512", kernels::detail::avx512_supported()}};
  for (const auto& cs : cases) {
    if (!cs.supported) {
      std::printf("[ SKIPPED  ] %s body: this CPU lacks it\n", cs.name);
      continue;
    }
    const kernels::detail::ScopedBody pin(cs.body);
    fn(cs.name);
  }
}

}  // namespace moment::gnn::reference
