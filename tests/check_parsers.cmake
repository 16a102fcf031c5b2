# Every number bxt reads from text goes through src/common/parse.h. This
# ctest case (tests/CMakeLists.txt) fails when a source file under src/,
# tools/, bench/ or examples/ calls a C or C++ library number reader
# instead, naming each line that does:
#
#   cmake -DROOT=<source dir> -P check_parsers.cmake

set(readers "strto(l|ll|ul|ull|f|d)|std::sto(i|l|ll|ul|ull|f|d)|ato(i|l|ll|f)")
set(call "(^|[^A-Za-z0-9_])(${readers})\\(")

set(found "")
foreach(dir src tools bench examples)
    file(GLOB_RECURSE files "${ROOT}/${dir}/*.h" "${ROOT}/${dir}/*.cpp")
    foreach(file ${files})
        file(READ "${file}" text)
        if(NOT text MATCHES "${call}")
            continue()
        endif()
        file(RELATIVE_PATH name "${ROOT}" "${file}")
        string(REGEX MATCHALL "[^\n]*${call}[^\n]*" lines "${text}")
        foreach(line ${lines})
            string(STRIP "${line}" line)
            string(APPEND found "\n  ${name}: ${line}")
        endforeach()
    endforeach()
endforeach()

if(found)
    message(FATAL_ERROR
        "read numbers with src/common/parse.h, not the C library:${found}")
endif()
