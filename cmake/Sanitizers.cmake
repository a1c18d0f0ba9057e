# -DSANITIZE=address|undefined|thread, comma-combinable where the
# runtimes can coexist:
#   address,undefined — the long-standing memory/UB config
#   thread[,undefined] — ThreadSanitizer (data-race) config
#   address,thread — rejected: the two runtimes intercept the same
#   allocator entry points and cannot be linked into one binary.
# Applied globally (compile + link) so the whole tree, tests, and benches
# run instrumented; invalid values or combinations fail at configure time.
set(SANITIZE "" CACHE STRING
    "Enable sanitizers: address, undefined, thread, or a valid comma list")
if(SANITIZE)
  string(REPLACE "," ";" _san_list "${SANITIZE}")
  foreach(_san IN LISTS _san_list)
    if(NOT _san MATCHES "^(address|undefined|thread)$")
      message(FATAL_ERROR "SANITIZE must combine address, undefined, thread; got '${SANITIZE}'")
    endif()
  endforeach()
  if("address" IN_LIST _san_list AND "thread" IN_LIST _san_list)
    message(FATAL_ERROR "SANITIZE=address,thread is invalid: AddressSanitizer and ThreadSanitizer cannot be combined in one binary")
  endif()
  foreach(_san IN LISTS _san_list)
    add_compile_options(-fsanitize=${_san} -fno-omit-frame-pointer)
    add_link_options(-fsanitize=${_san})
  endforeach()
  # Strict UBSan: the first report aborts the binary, so a finding fails
  # its test instead of scrolling past in the log (recoverable mode only
  # prints).  The CI sanitizer job and local builds share this setting.
  if("undefined" IN_LIST _san_list)
    add_compile_options(-fno-sanitize-recover=undefined)
    add_link_options(-fno-sanitize-recover=undefined)
  endif()
  # Tests carry tier-based CTest timeouts tuned for uninstrumented builds;
  # TSan's shadow-state instrumentation slows hot loops ~5-15x, so scale
  # them (consumed by tests/CMakeLists.txt).
  if("thread" IN_LIST _san_list)
    set(COLLOM_TEST_TIMEOUT_SCALE 5)
  endif()
endif()
if(NOT DEFINED COLLOM_TEST_TIMEOUT_SCALE)
  set(COLLOM_TEST_TIMEOUT_SCALE 1)
endif()
