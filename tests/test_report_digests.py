"""Report bytes pinned by SHA-256.

Every scenario under every tag, at one point and (where it sweeps) over a
swept key, plus a mirror sweep that crosses the good-conductor guard, a fiber
sweep that crosses pulse_energy_J = 0 and a sweep longer than one block of
emitted rows, goes through ``run`` and ``emit`` in all three formats; the
built-in check suite goes through ``cli.main`` in both of its formats.  The
digests were taken from the emission this module was written against (those
of covariant-checks again when its constitutive sample became a Weyl
sequence); a change to report bytes shows up here as a failing case.
"""

import hashlib

import pytest

from abmink import cli
from abmink.runner import emit, parse_config, run

# scenario -> (parameters, a sweep over one of them)
_CASES = {
    "mirror": ("n = 1.33\nE0_V_per_m = 1e3\nomega_rad_per_s = 3e15\n"
               "sigma_S_per_m = 5e7\n", "sigma_S_per_m:[5e7, 4e8, 7]"),
    "drag": ("intensity_W_per_m2 = 1e5\nsigma_a_m2 = 1e-20\n"
             "omega_rad_per_s = 1e14\nn = 3.4\n", "n:[1.5, 4.0, 7]"),
    "wgm": ("a_m = 100e-6\nP0_W = 100\nomega0_rad_per_s = 1000\nt_s = 2e-4\n",
            "t_s:[0, 1e-3, 7]"),
    "sphere-kick": ("M_kg = 1e-10\na_m = 25e-6\ndeltaG_kg_m_per_s = 8.1e-12\n"
                    "pulse_energy_J = 5.9e-6\nn = 1.33\nviscosity_Pa_s = 1e-3\n"
                    "L0_m = 300e-6\n", "n:[1.0, 1.6, 7]"),
    "fiber": ("pulse_energy_J = 2.7e-3\nn = 1.5\n", "n:[1.0, 2.0, 7]"),
    "bec": ("n = 1.33\nomega_rad_per_s = 3e15\n", "omega_rad_per_s:[1e15, 4e15, 7]"),
    "interface": ("E_t_V_per_m = 1e4\nn_from = 1.2\nn_to = 1.5\n",
                  "n_to:[1.0, 2.0, 6]"),
    "covariant-checks": ("", None),
}


def _requests():
    for scenario, (params, sweep) in _CASES.items():
        for tag in ("both", "abraham", "minkowski"):
            text = f"scenario = {scenario}\n{params}tag = {tag}\n"
            yield f"{scenario}/{tag}/point", text
            if sweep is not None:  # a swept key may not also be set
                swept = sweep.partition(":")[0]
                unset = "".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith(swept + " "))
                yield f"{scenario}/{tag}/sweep", f"{unset}sweep = {sweep}\n"
    mirror, _ = _CASES["mirror"]
    # sigma at the guard is about 2.4e6 S/m here: the low end is out of regime
    yield "mirror/guard", ("scenario = mirror\n"
                           + mirror.replace("sigma_S_per_m = 5e7\n", "")
                           + "sweep = sigma_S_per_m:[1e6, 1e7, 9]\n")
    yield "fiber/energy-through-zero", (
        "scenario = fiber\nn = 1.5\nsweep = pulse_energy_J:[-3e-3, 3e-3, 7]\n")
    yield "fiber/long", "scenario = fiber\nn = 1.5\nsweep = pulse_energy_J:[0, 1, 2500]\n"


REQUESTS = dict(_requests())

DIGESTS = {
    "mirror/both/point": {
        "table": "a7eeb9670cbb39eeccb0571acecac971ef3234c83b6ddad51147bc3992f206ee",
        "csv": "15df39b4e01b15bad650adf2042eaab150d3b002201915fcecefbb38151223ba",
        "json": "2f1e2142fe0e85ed28f28adb4c4dde6f97dfd03a9c2343a765cb7a7094d5f4ea",
    },
    "mirror/both/sweep": {
        "table": "870c6e30d0611daadb788f11dd6b08f27caed1446369f6372d6e30417e9ddb44",
        "csv": "3717dca2f00780cc27aaa14a557c1e35abe5dc50f5ad0a3a13360dc816a1bd59",
        "json": "a1e51e2d397c4e50e6e29648c906420ad6947698997e30e2ba7aeb68b4c729b5",
    },
    "mirror/abraham/point": {
        "table": "826dbf14d0b8c7192a01171d9e29c492c8d20941c462e376b9b7ac1afd51b26c",
        "csv": "15df39b4e01b15bad650adf2042eaab150d3b002201915fcecefbb38151223ba",
        "json": "d8bbd79d93a0094332b00943be70ce4d08953a262448e01f6744a89d59968ce7",
    },
    "mirror/abraham/sweep": {
        "table": "7798fd0ee09d43d76c549a58a3e9bcb0490f3d7e6dc7f286a8c460f2a73843fa",
        "csv": "3717dca2f00780cc27aaa14a557c1e35abe5dc50f5ad0a3a13360dc816a1bd59",
        "json": "9b1a3175f7a351ab298b677a59183a6b45c2bfad340fbc73a31aca4f939e5e80",
    },
    "mirror/minkowski/point": {
        "table": "74e5d00c0ab0be402fa53e12d358215f68744e2504801a8ce5f08e64ae89ac6e",
        "csv": "15df39b4e01b15bad650adf2042eaab150d3b002201915fcecefbb38151223ba",
        "json": "8ca3e6e7b3457a8468eff54368abcd0bb618d55ea253a174c74535754e635ceb",
    },
    "mirror/minkowski/sweep": {
        "table": "345d24e6f4c1f8213f3f8d859dc3a53302ff33e75b8d7cbf358936f78b0f647e",
        "csv": "3717dca2f00780cc27aaa14a557c1e35abe5dc50f5ad0a3a13360dc816a1bd59",
        "json": "7a4ee28ebb7bb12fd69d60e650167f256db6d283e724dd95cb754aaa64ee9e92",
    },
    "drag/both/point": {
        "table": "ae6377e27a1425119583c0f6eb74b2d86a8d0b909e18ffbc95c2b1c6d2a65c82",
        "csv": "002c9c9b1906c72a3b1e11e9b2d5197e01e5b6db8e0450eec328029e0d6710fc",
        "json": "565d6261eefdc59bbd9f4cec35467f39598fe2ecbf74eea6d70b105fd835711e",
    },
    "drag/both/sweep": {
        "table": "f0b49b8ddc263fa670c7c66194778f3c45a5243346431dc4fe77dd1e48a4644f",
        "csv": "465ca9f0c61821d83c7de21d49941e84bddd0f7d622a1322334fe9e195f58a6e",
        "json": "d26e5dd9e3e7a36293bcc51b12af40ef3069f4528f519bb38785108fa8d5ece2",
    },
    "drag/abraham/point": {
        "table": "b32214a2d13423d1835e9f6262720fcf4b3d46958fdf3fafa2a7639e4b130f19",
        "csv": "e6172963325e3e2dc795dd84420c7198987bd776253123e474a6807308565853",
        "json": "bf8e2d8083c79492c0fa1889b239e39a228851fb23934c73b3e695fca2e0f134",
    },
    "drag/abraham/sweep": {
        "table": "e6afc39929fd474893ac93fb58b941011e6b2cace6a3a859b6791e2cae0d3c3f",
        "csv": "b5894e69e65099dc77e13954bbc9b51a4b706b9a582729e0ad1913ac01cb80fb",
        "json": "c27246f85ae33e25ac7d97424597e67422bc3c2efb58b503ae1a24bb8d44b5a3",
    },
    "drag/minkowski/point": {
        "table": "4e97526b06d39838dff6a292753dca70e054752b1635405b8a9bb9277d75f730",
        "csv": "198326b45ce75d792cf3c855324175bb4407c4a1535b1c5d39acc210504ee9c8",
        "json": "de01f1da079eb4cff25160917b4b65442c8500ae54e2871422a8e33f9a7a4e27",
    },
    "drag/minkowski/sweep": {
        "table": "c5da13d158e7c02733ce565798c3be2e4ef385567103719f32a862f5c22242fc",
        "csv": "4ee771b7e73c76db7c148ce54c84e137103e1d3e1f563b1804f74b3b70aca2e2",
        "json": "bc9961f6c9535e082cb23e30603b3c7c1735d9b46546504bb936675afc85ce8d",
    },
    "wgm/both/point": {
        "table": "7c71c2abddb15c16c660a8a72fe038204377819c68a57801c2e474a3c8271e7c",
        "csv": "d2778150e1d8855d66ac10ec22c4caf695845409183a0e0c4c76c9ee4060f851",
        "json": "814ef7a47ccaebf007d39509b4fe9cde680d2702bed2ae3d7fbfd5adc04e1cd7",
    },
    "wgm/both/sweep": {
        "table": "fc062d6ecf18cf027a0ecace96fd9f9f3f73a58f7a30e1a35a741408e48b7140",
        "csv": "eb1f46ada17e2a02b67cfaa4cc03b11757d62b73d6400cbe5f14a25afc483e92",
        "json": "c9a9d4fde161bd1875038232a0cd26926fba5756aa75f01365f7c5a2a07daf2c",
    },
    "wgm/abraham/point": {
        "table": "33f02ed6ad3cd3d00047cac2d1d0b05de2ec80bdc1fcd3aaaf3d8c705fbe58df",
        "csv": "b08a53b039042a10afcfc2e5658fa3fb401b5f73b2052b5227da4e3945d9e39f",
        "json": "7f0b63543cd25e14ad57c836e6728c5990a1f66f33281e6abe50ad11807de758",
    },
    "wgm/abraham/sweep": {
        "table": "1cfb7c4d28d4e703d3756a7918ca08d7ba38a04aeeafc0ac7576c33321922070",
        "csv": "44fa85d0adb35ce5f826b7bbd17017d39931fd0ed7e9927f1a7b4ae67fc4328e",
        "json": "e823ddc1c17d42ce532524c7ce4a61923ecb49d1a0d2167dd7a5c3bef2118769",
    },
    "wgm/minkowski/point": {
        "table": "60f630e6e949371b392cc3d183bd08df5c936cb123ca835442f89cc2d0bdf79b",
        "csv": "bf2673bd97e8e091f110a4399d17be51198995e5b6905a38a9ec4e633ba92089",
        "json": "8fe09bd140542002b8bafa560c862e3f9ea94b3128281b7a67909fd53a450dcb",
    },
    "wgm/minkowski/sweep": {
        "table": "4faa9c9fb547f0cb7183426696164f9eafccf84ad7606e3d81279076a65435fe",
        "csv": "201dfd0dc01d9c225695e977d56e32406fc6230e7615014b201236c60cbe5193",
        "json": "66e2928f484608243dba4ff625dfbde5d94e335794f68e3ecae9fa1632c8322d",
    },
    "sphere-kick/both/point": {
        "table": "4ca9d4c76f2943d25e6bd3f9406d86927f163695ae35a14a2867d1e28b620db3",
        "csv": "25e9894810660896eacb9c1308d424486d5a748a66d1fca5a50a23125ef1a4c7",
        "json": "28e2d3e58efc1a3ca1d10b29905d15625ca47780f3c24f77c94803f0f552c9ae",
    },
    "sphere-kick/both/sweep": {
        "table": "ead25339495eb4c5ed5d0e78b33872e24060c0a430cc3e2f89f91a9b6349e3cf",
        "csv": "d6d1b1ffa5f1eae87f9cb0a644f78698c906c0d0b79c8bf07dd54ac8431b13cb",
        "json": "b6ccab601de0cd124640322668b7e0cdc55a5718ca81cb66fb4e8dc6b57fb00a",
    },
    "sphere-kick/abraham/point": {
        "table": "85fe50e07b6da1b18773830146b217924ca7631c824455b54d13422b5819096e",
        "csv": "19c6ff5fc540bd719c710fc728018057a9ea2d0f0020612bd94b5d7f588458a4",
        "json": "64feb0d343a7e3e3042ead2f553842fd4497acbac89f69348dc823a947fcf448",
    },
    "sphere-kick/abraham/sweep": {
        "table": "a2cbe60b6f41b685e72b8a011b59174b7cd89e8dc458193d819aa4db2af07f6e",
        "csv": "5a03ec670c3048f46c29b128aebd47d1a6587b242c28240b5a55cd77e2656d19",
        "json": "9497db69b487a9a80497c9c6726cd3d92218b28ac276ca9cea6065e622e8f771",
    },
    "sphere-kick/minkowski/point": {
        "table": "361455f7569d79db11c9ac33a7b39f70cf28c8295cd66df44add40bace02cb3c",
        "csv": "79385826be3f19ab54fd4d1d4e8b00d2eb36ecd517a8724fd7d281d9e2f4283c",
        "json": "bb2ccdc03468c3338fe710f349fb60f989e5a3a40cb87d557c6434d57a95188f",
    },
    "sphere-kick/minkowski/sweep": {
        "table": "5fa5af2f72227bf41ab4c0503ad0ce96aafb13790562de15093c072890e03604",
        "csv": "a6ab336e324d3a2e7a3242df16629763e3126442daed19f20192c0bc407ed1ae",
        "json": "fc09933e87e53929a934804a227a0266a5596abdb20afe2347be9e8c0e4810e9",
    },
    "fiber/both/point": {
        "table": "8bb733e094bf0bda4b106478a331ef334e5646c108314e9f401e79c0680a956b",
        "csv": "5a8189791eb77b7c74fac6859eddf8c132a4fe347608d33fdaa730bc659eac92",
        "json": "0a0a8d8e49c6fef9537a4ed050012a337a6f930e69889b578f5838da2899fc23",
    },
    "fiber/both/sweep": {
        "table": "bfdfe851cccc2bd6a14e464e74ac1cca82fa9ad990fabfe2d130a6997e5ef95b",
        "csv": "1f0180c8031bd1da8970b09123a0ee528e01526e98204299e7e01c4af0505052",
        "json": "c66cbb8297ecf74eb9b0874f367cc5fa3834ba10014414a489375c0654a75a86",
    },
    "fiber/abraham/point": {
        "table": "26f31927e5cfe5b16d3d3e6c7c4a6a6957e0a0d37ad9287e907b1b1012282775",
        "csv": "5a8189791eb77b7c74fac6859eddf8c132a4fe347608d33fdaa730bc659eac92",
        "json": "70df83ce392f06f207b99283773b24eb8532b8ea12b4aa1eba605fc71a3cfe99",
    },
    "fiber/abraham/sweep": {
        "table": "7d960e9378de6daaddc611fedaa8e4030b180e8d16d738a0842f2884e10af77f",
        "csv": "1f0180c8031bd1da8970b09123a0ee528e01526e98204299e7e01c4af0505052",
        "json": "b9912b72b1f8c6895c50fdabea01b2701b54c39799b530aa6d1fef5b818d7863",
    },
    "fiber/minkowski/point": {
        "table": "81087d9d6fe6ff5c486db2617e2648e82b9fbea8d7e08fb724b0668ce53326f7",
        "csv": "5a8189791eb77b7c74fac6859eddf8c132a4fe347608d33fdaa730bc659eac92",
        "json": "c02ceaba1abc04412b00d433a774494e0b8432d61911a7a941b13a7ba94e81d8",
    },
    "fiber/minkowski/sweep": {
        "table": "9974fe26458b2f1dcd5f682d4faa1ade5a702c367a30962e9dc264e98a7fef71",
        "csv": "1f0180c8031bd1da8970b09123a0ee528e01526e98204299e7e01c4af0505052",
        "json": "b5c2246ed89399c5826ce7b60bc23ddfc3e67d348dc1eca06b3a418c1a66395a",
    },
    "bec/both/point": {
        "table": "86140a1058a117a0b5c8dce87bf01a0d44237a3156e374be2227318a3a04f837",
        "csv": "17340151701ea4ceeddf4b7da7a49076609356f00a99a53b8cbf7f276c45bc2a",
        "json": "9efb02c19049044d1ef63a953ee1c1c18fa4d1e657f54212dffc9ef3ce00f68b",
    },
    "bec/both/sweep": {
        "table": "671a8cd7d656796ba9a168186df3ae204e391f3efd9830981eef5040a6882a1d",
        "csv": "6529727a0821158fa97fa868a710c166c619436b136d0730618ad3016ed745f3",
        "json": "cfd5a1bfed45e9ba7824eac51933d8ccb404be600b2a6e0e4c96e9ad427a3a76",
    },
    "bec/abraham/point": {
        "table": "4c55197328047884f9fad95ce2467aaa8447ac93df52290b8dfe86f71c22c557",
        "csv": "17340151701ea4ceeddf4b7da7a49076609356f00a99a53b8cbf7f276c45bc2a",
        "json": "45a5b934124b93b79fdd925815b6d9139d9be4229a9148959ac1b05ddba29c9d",
    },
    "bec/abraham/sweep": {
        "table": "0192512f4a5fdee21ce42c1f5ddbdfcd09c3dd7373f5d603034515473bcef260",
        "csv": "6529727a0821158fa97fa868a710c166c619436b136d0730618ad3016ed745f3",
        "json": "9e4244795e55b41e1934d045e308d9848d0eae1c402ad8f98a72b3ce541b42d4",
    },
    "bec/minkowski/point": {
        "table": "d0abbc938075c2a85849fd5e5e8451abe6e5dac95fcff7dccdb6a831d06f59f5",
        "csv": "17340151701ea4ceeddf4b7da7a49076609356f00a99a53b8cbf7f276c45bc2a",
        "json": "c7a0528486d4d025af825f317f751d5c4ef3a1a9c203cde3e67ac8e9697a117d",
    },
    "bec/minkowski/sweep": {
        "table": "d539ebba4cea0f3ef4b0127d667f0516688206218a9b2a8703a9a7ff684c530f",
        "csv": "6529727a0821158fa97fa868a710c166c619436b136d0730618ad3016ed745f3",
        "json": "385e49e2156f26ece829fd01b0e26208dc0b6abde1a85d815526eef02e0368d0",
    },
    "interface/both/point": {
        "table": "f5791ff5b41966c23a7f2a143c65fd92f920c47a00489d25d63c656c84aa4fcc",
        "csv": "f9a37ae6ee94886f7785f950b5defe3c7d3351c7962955c959cefb2562d2cfdb",
        "json": "efdce74bba84436eb5d2aa32b59d29ede8b2ac9d11c33e5dd7596f474cbebd42",
    },
    "interface/both/sweep": {
        "table": "801618d79ae15cecf0e36026e006d9eda6b086f4496befb22a8ef253f31662b4",
        "csv": "4417d41e3fbd68bdc5945af68c6a054a3e9b794f1e6ef8e4f1601cdfeb09d6e7",
        "json": "c4cb5567282224904711bc7f775570725acdb03ed743c8a1cbd93976c3507367",
    },
    "interface/abraham/point": {
        "table": "25eeace04460c3d3fd8d7cd5ee7b3b5143f436c52f1458c7734ea602bbd69619",
        "csv": "f9a37ae6ee94886f7785f950b5defe3c7d3351c7962955c959cefb2562d2cfdb",
        "json": "83cd8ed4ead5a1d3da4293928b5a63fec2b52c0bace4c46ee0820a1cb7a760b7",
    },
    "interface/abraham/sweep": {
        "table": "aea0471df8c21209b22739848cbf40d803cb173a9aa167cddf8ac94e402fe949",
        "csv": "4417d41e3fbd68bdc5945af68c6a054a3e9b794f1e6ef8e4f1601cdfeb09d6e7",
        "json": "7a03edfdba34899fe53c71d8833fe25406ef3032252810d65a4360ea7a8058b9",
    },
    "interface/minkowski/point": {
        "table": "f185180b6293688803f6b926b5b75a9d1c2ecf488e899865700c40f27bbdaf3a",
        "csv": "f9a37ae6ee94886f7785f950b5defe3c7d3351c7962955c959cefb2562d2cfdb",
        "json": "1b9d947f54436b51e7f5cf5db386c539766757e1b17130569c3259cfd99e3f68",
    },
    "interface/minkowski/sweep": {
        "table": "562d5ce0d253924a92723c5371eeed63f6909587bbb5f9f9b98cf89ec9e9c744",
        "csv": "4417d41e3fbd68bdc5945af68c6a054a3e9b794f1e6ef8e4f1601cdfeb09d6e7",
        "json": "14f902950dd2b153cfe7e32f7c72aa8fd08d5095e18f7ee0e762868f2b624fe7",
    },
    "covariant-checks/both/point": {
        "table": "d80cc0417db418edb2e366b9e75b4cfaa4844e8d055d54d4ad53e5de9550b3f3",
        "csv": "b60011db14acc8e13e832612f092fd2be381f64edb6793094bf4bbca0b49709e",
        "json": "a0cb7229aaa165885d22149f2d6930c408a2f5e1096b2fc508150434cbc03b99",
    },
    "covariant-checks/abraham/point": {
        "table": "c2ebd76ef6acd932a94c6281678abb1b58f15360fc2fabe536476df75d9b4aad",
        "csv": "b60011db14acc8e13e832612f092fd2be381f64edb6793094bf4bbca0b49709e",
        "json": "6e7ea8cc9d0bde227cd8675247c0d876f3f647fd988a936f5037bf00e1206f6f",
    },
    "covariant-checks/minkowski/point": {
        "table": "4f820a38ec510af5504e894ce77ca28ce232a997d5108f75e5e5f6db91993113",
        "csv": "b60011db14acc8e13e832612f092fd2be381f64edb6793094bf4bbca0b49709e",
        "json": "31917d5fcc7038d29ffd849cc167fc9eecc6ae42aea33aa1664a194f810fcd50",
    },
    "mirror/guard": {
        "table": "185c80f70213eb844c08bccd12cc06a42f387dba9ed17ee27b4643ec6339eb6e",
        "csv": "4349d85de548bddc67ca29197a9f48d565f0e79f34186f955e038545c8804142",
        "json": "493945b099b286b5e0a74d28d06839ce5a93dc6b73c63d3ce67cee4b57aae012",
    },
    "fiber/energy-through-zero": {
        "table": "a0069f61405e5d33a7864f18326d6f2ae0b59e3503a6a3f7495d5b4c1163ef59",
        "csv": "7a2b4c1b63336ae5d8c5a4df6caaf152ca30c68b281f110bb3ad6f8c2d2d623a",
        "json": "35e75bfdf217cf3267233a3683c3847e6f50cc2eb52ff2f049934df5080d8e99",
    },
    "fiber/long": {
        "table": "89212bac3df3503480278ef2452999239e9f712b4fda163aa742025939b7b8fa",
        "csv": "63a9b0e240f94944bad9e60748a30278f607c9f3da11e8da3f9b29b53060e384",
        "json": "0b28115fee9d464a0bd462bc7b389ffda77d209fb31811b2366010c0bb26efd5",
    },
}


@pytest.mark.parametrize("name", list(REQUESTS))
def test_report_bytes_are_pinned(name):
    report = run(parse_config(REQUESTS[name]))
    got = {fmt: hashlib.sha256(emit(report, fmt)).hexdigest()
           for fmt in ("table", "csv", "json")}
    assert got == DIGESTS[name]


# argv -> the output of ``abmink check`` at the default tolerance
CHECK_DIGESTS = {
    ("check", "--format", "json"):
        "b0506a060f61b78ad0ebc57d9ab8ea414dd35af3c069662862ec867a7e0d46ed",
    ("check",): "0e791745a2c3dc15bd23c0f7dc2783d2d866320500caa7463907c021651e9170",
}


@pytest.mark.parametrize("argv", list(CHECK_DIGESTS))
def test_check_bytes_are_pinned(argv, monkeypatch, capsysbinary):
    monkeypatch.delenv("ABMINK_TOL", raising=False)
    assert cli.main(list(argv)) == 0
    out, err = capsysbinary.readouterr()
    assert err == b""
    assert hashlib.sha256(out).hexdigest() == CHECK_DIGESTS[argv]
