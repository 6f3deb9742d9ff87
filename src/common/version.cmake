# Writes OUTPUT, a header defining ELV_VERSION_STRING as `git describe`
# of SOURCE_DIR ("unknown" outside a git checkout). The file is rewritten
# only when the text changes, so an unchanged tree recompiles nothing.
execute_process(COMMAND git describe --tags --always --dirty
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE version
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR version STREQUAL "")
    set(version "unknown")
endif()
set(text "#define ELV_VERSION_STRING \"${version}\"\n")
set(current "")
if(EXISTS ${OUTPUT})
    file(READ ${OUTPUT} current)
endif()
if(NOT current STREQUAL text)
    file(WRITE ${OUTPUT} "${text}")
endif()
