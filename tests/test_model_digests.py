"""Golden digests of every stored model: a guard on byte-identical outputs.

All 48 algorithm x approach x variant models are trained on one fixed
60-student ``synth`` cohort, and the sha256 of each model's JSON text
(``model_to_json``, one per source model for a vote) and of its
``render_model`` text is compared with the literal table below.

A speed-up must leave this table untouched.  A change that alters
outputs on purpose (such as J48-style numeric splits in C4.5 and PART)
re-records the table and declares that in CHANGES.md.  To print a fresh
table:

    PYTHONPATH=src python3 tests/test_model_digests.py
"""

import hashlib

import pytest

from fusemine.cli import render_model
from fusemine.ensemble import APPROACHES, FusionConfig, VoteModel, run_approach
from fusemine.evaluation import VARIANTS
from fusemine.learners import ALGORITHMS, model_to_json
from fusemine.preprocess import PreprocessConfig, preprocess_bundle
from fusemine.synth import CohortSpec, generate
from fusemine.tabular import SOURCE_ORDER

COHORT = CohortSpec(n_students=60, class_counts=(20, 20, 20), noise_rate=0.1, seed=8)
TRAIN_SEED = 3

# (algorithm, approach, variant) -> (sha256 of the JSON text, sha256 of the rendered text)
DIGESTS = {
    ('c45', 'merge', 'numeric'): (
        'a6960b13f926cfd6e6f6e7f25c5319c1317eb8e114f50fcd949269d24abc9d21',
        '148f7d472c68bf93c1b988d0085f329cdabd630ac31be937baf4dcc6194467a4',
    ),
    ('c45', 'merge', 'discretized'): (
        'e352dafbed6cb374b4713c6021fd5acfcf9911460f7d6f40026326de0b483f5a',
        'c0739245aeb8c8693cbecafcd5e30a5b37a6f697477b91c9efb1353aba9a4a55',
    ),
    ('c45', 'select', 'numeric'): (
        '4623dac924cc4b534a9d1a37c9138eae65ce18b4812d3881a91a1f5360b07aef',
        '718270de0d99f069d64681fad7f8cc3c38ede0ff9b52f0989fd6e43dd1d6718d',
    ),
    ('c45', 'select', 'discretized'): (
        '8e88c19b4ea480f1b77ec45b80db014de56ba5b887d4e4abaab5a2d38bbb25b8',
        '6e779223bc5e2e80098fb2e274910447c36aa16c47ccb1e7640223139c7d7cd7',
    ),
    ('c45', 'ensemble', 'numeric'): (
        '0a72765915be7936bc2767a31279056d5d7166479a30202782563688961bf61d',
        '826e1651cce79a67dd272fe9f80c3561456647c8873873989d1ccff4d86d8b76',
    ),
    ('c45', 'ensemble', 'discretized'): (
        '028643f39c4ab7e18a9c83ba50ceedbc54ed8c62aff768e278c9e6fa14b4b6b6',
        'd2534be52410266c82ccaf8825336951faaf2095aefc77140f8857288507fb1a',
    ),
    ('c45', 'ensemble-select', 'numeric'): (
        'e34d3ae8e267dc94fc90d387ec8af6e0e13dd3299c50a7b15113083fbbcba189',
        'be5acaaf51679f6ecf513e2e76351677c6b3cd7ffc5abd98716dbae87682d14f',
    ),
    ('c45', 'ensemble-select', 'discretized'): (
        '1f8de77e4ae7a6dd9281a06e564030bf01f75e893fc09b03a5b149554d5b760c',
        '35ab69816fcb0723d917949b99d6c5712597575d174fd45a0e4983f2ab4963a6',
    ),
    ('reptree', 'merge', 'numeric'): (
        'a3551cfe52fbbf8d92911540d4cfb6955551dcfd96089d0c9387f24190a98509',
        '6a648de8b032c449c97709f3903c738ffadf0502b63f7db1e1a59d6d48d026d4',
    ),
    ('reptree', 'merge', 'discretized'): (
        '1f018f0462d61cc52670f23cc3278ead3ce8af3710a46da041ef604fd7490802',
        '8de49da62edfc3714f412042f816bb09b7df02e77d3ba8e9120ff1595b89ca96',
    ),
    ('reptree', 'select', 'numeric'): (
        '9b9eb3a213b62797660772dc466d26909b58f69ff7de4b9ffe8555c007515363',
        'e717d024db680b7c58528bd349c44c9994762c867f163778fe7bdac4c512279a',
    ),
    ('reptree', 'select', 'discretized'): (
        'bcd0863c054d858e37d59e41a9016d5cfbcecc53e23d0f0f054f3f7a48871924',
        '6e779223bc5e2e80098fb2e274910447c36aa16c47ccb1e7640223139c7d7cd7',
    ),
    ('reptree', 'ensemble', 'numeric'): (
        'a473e5cafe7e1e504f67d7972c98c91a601a2d54c62d73cdcc6364d41e0f1a4d',
        '1e7185ad937a34977766b26f9b559ea522ce454416140af738caf8924e475cf1',
    ),
    ('reptree', 'ensemble', 'discretized'): (
        '9154cb6971df32f92cb3cfdd942fb76ac245ff1e26df6990232cdf0e9d166133',
        '6fc688ba5e8d8f6ac188a39971bc40348440a27ab5e60bf59f190c94a150bdce',
    ),
    ('reptree', 'ensemble-select', 'numeric'): (
        '7ce798bbb3f4d5fcb3994cbc1f9d985e685d1c8d923bb555f46d0a08c4627299',
        'ff9413ecc88c60dcb0d3068bd997ef26b7da5652ac673ff76773ec9a6b003c06',
    ),
    ('reptree', 'ensemble-select', 'discretized'): (
        '6c05380560e5cbad28677aa1235d1574c9a6cf7caf7597a7aa3e2230cb78c554',
        '0d3e38590bcf93de734608613ce74455268760cb9c1eefa2ca8c05e85763b2f3',
    ),
    ('randomtree', 'merge', 'numeric'): (
        '3849ff02accd1131e014ba25b8672b87aee2ac7a38decc60be1097d6552a789c',
        '2c8260257c23b9f47af0367ceb111eb0f41e4f8938fe8705415b9f8c7da56d96',
    ),
    ('randomtree', 'merge', 'discretized'): (
        '1ea78400a9740e1e4ab6d067dd13e54e833ffb515083d11cca0edcd470ea6cbd',
        '266b9d4a970a102b46f87cb37cb527a5e08f755f6cf7dcea756a5007e2b93d80',
    ),
    ('randomtree', 'select', 'numeric'): (
        '87616617381bc3461e591e784af8a2e54d50d7ac62c326373397e9339aba5814',
        'b5f249dc04c945c45ee75a142e3462bc72ef4d22eaed9292fd31c3ff258ae9c5',
    ),
    ('randomtree', 'select', 'discretized'): (
        'f60722497adc090e35b8da98c194d8ed38aa959a20c6402a31ffeaa9a61dcb3f',
        '6e779223bc5e2e80098fb2e274910447c36aa16c47ccb1e7640223139c7d7cd7',
    ),
    ('randomtree', 'ensemble', 'numeric'): (
        '0b5aea86d348941150e9ca97cb72f1f79e53f36a2289c1995d015d591104ed46',
        '2374df99d049ffd5d0b140558350ec5e6a44ba59e5b3f02548bd6db42dba62a9',
    ),
    ('randomtree', 'ensemble', 'discretized'): (
        '16902202a1d7dd8d824948257fd07ff08d1ca1c074babbb7b85da23655ca0002',
        'f65e5886d3efe5c1a2a756d86ee8236124b51f61e1ff236825975ae20609b5ce',
    ),
    ('randomtree', 'ensemble-select', 'numeric'): (
        'a60d60c016b683f0a6f6b55b5a6e7bdb77dc87e0c903afcfbe0ac5f3957f9a65',
        'e5fa0dd25e09d571ebeb5e0fefc929eac6d8e053a9e782ae9f639a5fe8603ee3',
    ),
    ('randomtree', 'ensemble-select', 'discretized'): (
        'ddb0bd1aaa629c06c955d282bb8955b129441b8bacb7fc2598595f923070686c',
        '9fc90247a19e14e197e877086053e65997c2c39f8cf8f151526ea391343677ec',
    ),
    ('ripper', 'merge', 'numeric'): (
        'b31bfb98198a8a28fbb6ea81dd1f8932fdca4d92c35222da6e28f3c7a4dbc8ea',
        'e781377811b349aa9eab48e9dd1bb4216f330406b1576ebe12b4df3cde3fde43',
    ),
    ('ripper', 'merge', 'discretized'): (
        'e2b9fdd5949828fb861745190d103982d35b044814d6fd88de50811ee1815a3c',
        '8c1e32ebc8d76ac07b2d30b79afee93717964aaf0eec55bbe018ffd03a08b75a',
    ),
    ('ripper', 'select', 'numeric'): (
        'e500ce0d0a5379112b1ece34258dfd7350f40f494f0066bc5d121170ed853a78',
        'f18880592e442218dfd93366e19ea44792ac6ca1c21772ec3187a5722e4165c6',
    ),
    ('ripper', 'select', 'discretized'): (
        '6f5692ab1910a9256a5fa14c726672e9be3a2ab6bfa3587b57b9c43be4122df8',
        '6155fe7687ccd7579d77bdbdde691442d9ecf58d7cc72ed6adce93a6062913f2',
    ),
    ('ripper', 'ensemble', 'numeric'): (
        '42a031ed9d28e4c1d2391b5b8409923f727a62395cb94ee883c47ec7c0ba3f4a',
        '28b829fbba3efabf1d8f56b40d58adfd51433ed4ac9c8680cb269e0c07907125',
    ),
    ('ripper', 'ensemble', 'discretized'): (
        'c6df2dc1f670c01d9635c5d8bd4ef61fcb92c5071337af4cce820a892b5bdecf',
        'd2e465dacb9bd491f7ee6031a9c69e41c7b360b709ce3bd04b64ea5fcda78a96',
    ),
    ('ripper', 'ensemble-select', 'numeric'): (
        '6a41144a87e611e7f0160458b2d505b632a31c3563403013a21f6019d039a507',
        '5e7873c4c2ad09ddad59f539cb9ffe677f62f0c143c56d99fc475e1bc455680c',
    ),
    ('ripper', 'ensemble-select', 'discretized'): (
        '4d55e8bfe768fcbcfa7a2ce7dd0cba1e80a3fca98e4258af3b0a35d58c60991b',
        'af9243992e16127ba8216006126b7d9d3661e0f9296e762984ecca7e7cd4a1a7',
    ),
    ('part', 'merge', 'numeric'): (
        '83f62bc4c0955280bdb46532390709d297d3f970d2c4609f67d5d434d7b9f44f',
        '2e3cd6c551ae3ce21de7640d67a3a1e6fe94b67d1d0717b35785b97e8ce24da8',
    ),
    ('part', 'merge', 'discretized'): (
        '991edb14990251718a3c7cdaf1bd6022531c352040b751284cf7d4fafb700db2',
        '04d90d04cb75077029c88fc9bbdcdf0a3c8f9eb622c3b5fd7b69d1950e35fe8d',
    ),
    ('part', 'select', 'numeric'): (
        '123da65a2b6885e2317691f9ef1277e4c3bff3c5b64c551e9b31541f663cc42c',
        'b2952bcb8413212568e0a7867cb3682191465d99d7b5c9c05c4add080c3b41c8',
    ),
    ('part', 'select', 'discretized'): (
        '101d297b152d07b7d92b1a1a3ca31ae34201e51242db27f6ca356d1b7cbd3483',
        'e7d02229df156c5a678b75b218dda0f9bd724b3b03a18c4216ca9225cc454d4f',
    ),
    ('part', 'ensemble', 'numeric'): (
        '59a9eff9f92ddc1dd35515336a3aff2d997c07329b9af92bcb2e5ba78b7d777b',
        '64a70fab272aae45816d39b4d7caaadd8b2163f8ecda43364a334bbaf14953cc',
    ),
    ('part', 'ensemble', 'discretized'): (
        'faa2066a1353445d2345c8a96fb458cf36af1ef90372c35717c5ec1a5468c631',
        'a413fb5ea2ac3982b8231e1889cc25b9384733cf4e73f2b31c006ca0145e8b52',
    ),
    ('part', 'ensemble-select', 'numeric'): (
        'a4bd0dcaa7645e3fe80d4355b3becffc5904f0e721464ceea8c8b7f13d94f39a',
        '8ed1f19846c73ca5c3572185a1dac08d5d10ce1d825ebfa7b34eae1b9f7bbf3d',
    ),
    ('part', 'ensemble-select', 'discretized'): (
        '2fc22ab01eb89b97a1ab56445c08224e0a80535cc2a66fa76a2bdf5f09b87635',
        '3cff0545453a43bed2099de097d822c3040a556d38636d2fd0a998149deab5ed',
    ),
    ('nnge', 'merge', 'numeric'): (
        '0b0dfdfd6c384e2b911f4956a0c4f92307eaf0bbdd024ee1674f6b15f6070847',
        'cdf2ab02a3e9f660fb6f1d253b69faf06dbacd1c39eae3eb8228d0c05c764815',
    ),
    ('nnge', 'merge', 'discretized'): (
        'e69e1c9dff61e3bc4d1a7c275a1bed7407df78859dc844eec7d82578f83c8005',
        'e74d624fc85c9a65706ebdc66f969db663fb51d3423787d285791d555a3a8144',
    ),
    ('nnge', 'select', 'numeric'): (
        '7bfcc39bfab58741e7f659cd4fbe555f77ec4cde739e247463fdc8ca59268804',
        'fa3970edace7483767974754a51168a02be509d7155238e431d0d7be296daba7',
    ),
    ('nnge', 'select', 'discretized'): (
        '2fab93321673f6710c97a4fc836d0d3205c4085fab811f7cc4cd05fb4c8f13c5',
        '20176a39b2fa0809fb0c6f6a3d8aafbb21499883ed618c8304e3dfa6143f688e',
    ),
    ('nnge', 'ensemble', 'numeric'): (
        'd9a68fdfd613a4ed282e01b8b7500bbd564aa0ef86432303b52a987a8010f571',
        '40ed8abef54fb2e21773615dfae28909974c863f1a40f5b948f8d0801180bdd4',
    ),
    ('nnge', 'ensemble', 'discretized'): (
        '49c5dfac3e625c302b85ce7a12a59f5908456229df18fd0b5f1345e581e51b09',
        'c7641e5dee0c756d256394f32c825244c440d06f73a379e4821a70640811b250',
    ),
    ('nnge', 'ensemble-select', 'numeric'): (
        '684648252d557ff84ea50c35043ec4d496faf1ab5502981e5b53b766f89ee9a6',
        'c6654cacb92bda0ec2636786b33ac56d48fcc1cddb661218c3bf31736b5a2162',
    ),
    ('nnge', 'ensemble-select', 'discretized'): (
        '3800daf7874358cca03d729289f1f0b8394bc0da99714d0c913971da18cca9fa',
        'e67b88c1a32aa285f6cec2835da4ae74f9f11abe90947ce704d539ba57211e1f',
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_text(model) -> str:
    if isinstance(model, VoteModel):
        return "".join(
            model_to_json(model.models[name]) for name in SOURCE_ORDER if name in model.models
        )
    return model_to_json(model)


def model_digests() -> dict:
    bundle, _truth = generate(COHORT)
    result = preprocess_bundle(bundle, PreprocessConfig())
    bundles = {"numeric": result.numeric, "discretized": result.discretized}
    out = {}
    for algorithm in ALGORITHMS:
        for approach in APPROACHES:
            for variant in VARIANTS:
                model, _ = run_approach(
                    FusionConfig(approach=approach), bundles[variant], algorithm, seed=TRAIN_SEED
                )
                out[(algorithm, approach, variant)] = (
                    _sha(_json_text(model)), _sha(render_model(model)),
                )
    return out


@pytest.fixture(scope="module")
def digests():
    return model_digests()


def test_table_covers_every_combination():
    assert len(DIGESTS) == len(ALGORITHMS) * len(APPROACHES) * len(VARIANTS) == 48


@pytest.mark.parametrize("key", sorted(DIGESTS), ids="/".join)
def test_model_digest_unchanged(digests, key):
    assert digests[key] == DIGESTS[key]


if __name__ == "__main__":
    print("DIGESTS = {")
    for key, (json_sha, text_sha) in model_digests().items():
        print(f"    {key!r}: (")
        print(f"        {json_sha!r},")
        print(f"        {text_sha!r},")
        print("    ),")
    print("}")
