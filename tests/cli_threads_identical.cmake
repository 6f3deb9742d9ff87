# One full elivagar_cli run (search, training, noiseless and noisy
# evaluation, --emit text) at --threads 1 and at --threads 4: the two
# stdouts must be byte-identical, accuracy line included.
#
#   cmake -DCLI=path/to/elivagar_cli -P cli_threads_identical.cmake
foreach(threads 1 4)
    execute_process(
        COMMAND ${CLI} --benchmark mnist-4 --device ibm_perth
            --candidates 8 --scale 0.05 --epochs 5 --emit text
            --threads ${threads}
        OUTPUT_VARIABLE out_${threads}
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "elivagar_cli --threads ${threads}: ${status}")
    endif()
endforeach()
string(FIND "${out_1}" "accuracy: " at)
if(at EQUAL -1)
    message(FATAL_ERROR "no accuracy line in:\n${out_1}")
endif()
if(NOT out_1 STREQUAL out_4)
    message(FATAL_ERROR "stdout differs between --threads 1 and 4\n"
        "--- threads 1:\n${out_1}\n--- threads 4:\n${out_4}")
endif()
