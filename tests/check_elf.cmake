# Link-time properties of the built binaries, checked by ctest cases
# (tests/CMakeLists.txt, tools/CMakeLists.txt):
#
#   cmake -DCHECK=static-pie -DREADELF=readelf -DFILE=bxtd -P check_elf.cmake
#   cmake -DCHECK=daemon-text -DNM=nm -DFILE=bxtd -P check_elf.cmake
#   cmake -DCHECK=weak-helpers -DNM=nm -DFILE=libbxt_core.a -P check_elf.cmake
#
# Each fails with a message that names what it found.

# run(<out> <command>...): the command's stdout; fail if it fails.
function(run out)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE status
        OUTPUT_VARIABLE text ERROR_VARIABLE error)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${ARGN}: ${status}\n${error}")
    endif()
    set(${out} "${text}" PARENT_SCOPE)
endfunction()

if(CHECK STREQUAL "static-pie")
    # A static PIE: ELF type DYN (so ASLR still moves it), a GNU_RELRO
    # segment, and no INTERP segment or NEEDED entry (so a start runs no
    # dynamic loader).
    run(elf ${READELF} --wide --file-header --program-headers --dynamic
        "${FILE}")
    set(wrong "")
    if(NOT elf MATCHES "\n *Type: *DYN ")
        string(APPEND wrong " ELF type is not DYN;")
    endif()
    if(NOT elf MATCHES "\n *GNU_RELRO ")
        string(APPEND wrong " no GNU_RELRO segment;")
    endif()
    if(elf MATCHES "\n *INTERP ")
        string(APPEND wrong " has an INTERP segment;")
    endif()
    if(elf MATCHES "\\(NEEDED\\)")
        string(APPEND wrong " has NEEDED entries;")
    endif()
    if(wrong)
        message(FATAL_ERROR "${FILE} is not a static PIE:${wrong}")
    endif()
elseif(CHECK STREQUAL "daemon-text")
    # One <fstream> in a server-linked file maps libstdc++'s locale
    # machinery back into bxtd, about 0.4 MB of resident text (DESIGN.md
    # §10 "What bxtd maps"); and the kernels' CRC tables are one copy.
    run(symbols ${NM} -C "${FILE}")
    set(iostreams "std::basic_filebuf|std::basic_ios<|std::ios_base::Init")
    if(symbols MATCHES "[^\n]*(${iostreams}|std::locale::_Impl)[^\n]*")
        message(FATAL_ERROR "${FILE} links iostreams: ${CMAKE_MATCH_0}")
    endif()
    string(REGEX MATCHALL " bxt::simd::detail::crc32Tables\n" copies
        "${symbols}")
    list(LENGTH copies count)
    if(NOT count EQUAL 1)
        message(FATAL_ERROR
            "${FILE} holds ${count} copies of crc32Tables; want 1")
    endif()
elseif(CHECK STREQUAL "weak-helpers")
    # The kernel_common.h helpers have internal linkage. A weak
    # bxt::simd::detail symbol would let the linker keep one object's
    # copy (maybe built with -mavx2/-mavx512*) for every tier. The one
    # exception is crc32Tables: constant data, the same bytes under every
    # -m flag, shared on purpose so a binary holds one copy.
    run(symbols ${NM} -C "${FILE}")
    string(REGEX MATCHALL "[^\n]* [WVu] [^\n]*bxt::simd::detail[^\n]*" weak
        "${symbols}")
    list(FILTER weak EXCLUDE REGEX " u bxt::simd::detail::crc32Tables$")
    if(weak)
        list(JOIN weak "\n" weak)
        message(FATAL_ERROR
            "weak bxt::simd::detail symbols in ${FILE}:\n${weak}")
    endif()
else()
    message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
